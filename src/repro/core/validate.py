"""Cross-layer consistency validation of a collected system dump.

The three dump layers (guest page tables, KVM memslots, host page tables
plus the dumped frame array) are collected separately and non-atomically,
so a damaged or skewed collection shows up as *inconsistency between
layers*.  :func:`validate_dump` checks the invariants a clean dump must
satisfy and returns a severity-ranked :class:`ValidationReport`:

* every in-range mapped gfn is covered by **exactly one** memslot
  (``memslot-gap`` / ``memslot-overlap``);
* guest PTEs stay inside guest physical memory (``pte-out-of-range``);
* anonymous mappings agree with the guest kernel's gfn-ownership map
  (``owner-pid-mismatch`` / ``owner-missing`` / ``owner-orphan-pid``);
* every frame referenced by a collected host page table still has its
  content token (``frame-token-missing``);
* dumped frame refcounts match the number of PTE sharers across the
  collected host tables (``refcount-mismatch`` — the signature of
  collection skew while KSM keeps merging).

Finding counts are in *pages* (or frames, for the host-level checks),
which is what the degraded-mode accounting uses to bound its numbers.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.dump import GuestDump, SystemDump
from repro.faults.plan import FaultKind
from repro.guestos.kernel import OwnerKind
from repro.mem.physmem import STABLE


class Severity(enum.IntEnum):
    """How badly a finding undermines the analysis."""

    INFO = 10
    WARNING = 20
    ERROR = 30
    FATAL = 40


#: Every finding code and the severity it is reported with.
SEVERITY_BY_CODE: Dict[str, Severity] = {
    "memslot-gap": Severity.ERROR,
    "memslot-overlap": Severity.ERROR,
    "pte-out-of-range": Severity.ERROR,
    "owner-pid-mismatch": Severity.ERROR,
    "owner-missing": Severity.WARNING,
    "owner-orphan-pid": Severity.ERROR,
    "frame-token-missing": Severity.WARNING,
    "refcount-mismatch": Severity.ERROR,
    "no-analyzable-guests": Severity.FATAL,
    "ksm-volatility-leak": Severity.WARNING,
    "ksm-duplicate-table-name": Severity.ERROR,
    # Compressed-pool / host-memory consistency.
    "compression-pool-mismatch": Severity.ERROR,
    "compression-stats-drift": Severity.ERROR,
    # Transparent-huge-page block invariants (split-on-KSM-merge).
    "thp-shared-in-block": Severity.ERROR,
    "thp-block-accounting": Severity.ERROR,
}

#: Which finding codes each dump-corrupting fault class must produce
#: (used by the property tests: injected fault ⇒ detected fault).
EXPECTED_CODES_BY_FAULT: Dict[FaultKind, tuple] = {
    FaultKind.TRUNCATED_GUEST_DUMP: ("owner-missing", "owner-orphan-pid"),
    FaultKind.DROPPED_MEMSLOT: ("memslot-gap",),
    FaultKind.OVERLAPPING_MEMSLOT: ("memslot-overlap",),
    FaultKind.CORRUPT_GUEST_PTE: (
        "pte-out-of-range", "owner-pid-mismatch",
    ),
    FaultKind.TORN_HOST_PTE: ("refcount-mismatch",),
    FaultKind.MISSING_FRAME_TOKEN: ("frame-token-missing",),
}


@dataclass(frozen=True)
class Finding:
    """One invariant violation.

    ``pid`` scopes the finding: a process pid for process-level findings,
    ``-1`` for guest-kernel-level ones, ``None`` for structural or
    host-level findings.  ``count`` is the number of affected pages (or
    frames, for host-level checks).
    """

    severity: Severity
    code: str
    vm_name: str
    message: str
    pid: Optional[int] = None
    count: int = 1


@dataclass
class ValidationReport:
    """All findings of one validation pass, worst first."""

    findings: List[Finding] = field(default_factory=list)

    def add(
        self,
        code: str,
        vm_name: str,
        message: str,
        pid: Optional[int] = None,
        count: int = 1,
    ) -> None:
        self.findings.append(Finding(
            severity=SEVERITY_BY_CODE[code],
            code=code,
            vm_name=vm_name,
            message=message,
            pid=pid,
            count=count,
        ))

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (
            -f.severity, f.code, f.vm_name,
            f.pid if f.pid is not None else -(1 << 30),
        ))

    @property
    def ok(self) -> bool:
        """True when nothing at ERROR level or above was found."""
        return self.worst < Severity.ERROR

    @property
    def worst(self) -> Severity:
        if not self.findings:
            return Severity.INFO
        return max(finding.severity for finding in self.findings)

    def codes(self) -> List[str]:
        return sorted({finding.code for finding in self.findings})

    def render(self) -> str:
        lines = ["Validation report", "================="]
        if not self.findings:
            lines.append("  clean: all cross-layer invariants hold")
            return "\n".join(lines)
        for finding in self.findings:
            scope = finding.vm_name or "host"
            if finding.pid is not None and finding.pid >= 0:
                scope += f":pid{finding.pid}"
            lines.append(
                f"  [{finding.severity.name:<7}] {finding.code:<20} "
                f"{scope:<14} x{finding.count:<6} {finding.message}"
            )
        return "\n".join(lines)


def _slot_cover_count(guest: GuestDump, gfn: int) -> int:
    return sum(1 for slot in guest.memslots if slot.contains(gfn))


def _validate_memslots(report: ValidationReport, guest: GuestDump) -> None:
    """Structural slot check: pairwise overlap between memslots."""
    ordered = sorted(guest.memslots, key=lambda s: s.base_gfn)
    overlap_pages = 0
    for prev, cur in zip(ordered, ordered[1:]):
        overlap_pages += max(
            0, (prev.base_gfn + prev.npages) - cur.base_gfn
        )
    if overlap_pages:
        report.add(
            "memslot-overlap", guest.vm_name,
            "memslot array covers gfns more than once "
            "(torn memslot-array read)",
            count=overlap_pages,
        )


def _validate_guest(report: ValidationReport, guest: GuestDump) -> None:
    _validate_memslots(report, guest)
    dumped_pids = {process.pid for process in guest.processes}
    for process in guest.processes:
        out_of_range = 0
        gap = 0
        overlap = 0
        owner_missing = 0
        pid_mismatch = 0
        for vpn, gfn in process.page_table.items():
            if not 0 <= gfn < guest.guest_npages:
                out_of_range += 1
                continue
            cover = _slot_cover_count(guest, gfn)
            if cover == 0:
                gap += 1
            elif cover > 1:
                overlap += 1
            owner = guest.gfn_owners.get(gfn)
            if owner is None:
                owner_missing += 1
                continue
            vma = process.vma_of(vpn)
            if vma is not None and vma.file_id is None:
                if (
                    owner.kind is OwnerKind.PROCESS_ANON
                    and owner.pid != process.pid
                ):
                    pid_mismatch += 1
        if out_of_range:
            report.add(
                "pte-out-of-range", guest.vm_name,
                "PTEs point outside guest physical memory "
                "(corrupt page-table entries)",
                pid=process.pid, count=out_of_range,
            )
        if gap:
            report.add(
                "memslot-gap", guest.vm_name,
                "mapped gfns covered by no memslot "
                "(dropped slot; pages unattributable)",
                pid=process.pid, count=gap,
            )
        if overlap:
            report.add(
                "memslot-overlap", guest.vm_name,
                "mapped gfns covered by multiple memslots "
                "(translation ambiguous)",
                pid=process.pid, count=overlap,
            )
        if owner_missing:
            report.add(
                "owner-missing", guest.vm_name,
                "mapped gfns absent from the gfn-ownership map "
                "(truncated guest dump)",
                pid=process.pid, count=owner_missing,
            )
        if pid_mismatch:
            report.add(
                "owner-pid-mismatch", guest.vm_name,
                "anonymous mappings whose gfn the kernel attributes to "
                "a different process (collection skew)",
                pid=process.pid, count=pid_mismatch,
            )
    # Kernel side: allocated gfns must translate through exactly one slot.
    kernel_gap = 0
    kernel_overlap = 0
    orphan_pids: Counter = Counter()
    for gfn, owner in guest.gfn_owners.items():
        if owner.kind is OwnerKind.FREE:
            continue
        cover = _slot_cover_count(guest, gfn)
        if cover == 0:
            kernel_gap += 1
        elif cover > 1:
            kernel_overlap += 1
        if (
            owner.kind is OwnerKind.PROCESS_ANON
            and owner.pid is not None
            and owner.pid not in dumped_pids
        ):
            orphan_pids[owner.pid] += 1
    if kernel_gap:
        report.add(
            "memslot-gap", guest.vm_name,
            "allocated gfns covered by no memslot",
            pid=-1, count=kernel_gap,
        )
    if kernel_overlap:
        report.add(
            "memslot-overlap", guest.vm_name,
            "allocated gfns covered by multiple memslots",
            pid=-1, count=kernel_overlap,
        )
    if orphan_pids:
        report.add(
            "owner-orphan-pid", guest.vm_name,
            f"gfns owned by processes missing from the dump "
            f"(pids {sorted(orphan_pids)}; truncated guest dump)",
            pid=-1, count=sum(orphan_pids.values()),
        )


def _validate_host(report: ValidationReport, dump: SystemDump) -> None:
    sharers: Counter = Counter()
    token_missing = 0
    for table in dump.host.page_tables.values():
        for fid in table.values():
            sharers[fid] += 1
    for fid in sorted(sharers):
        if fid not in dump.frame_tokens:
            token_missing += 1
    if token_missing:
        report.add(
            "frame-token-missing", "",
            "frames referenced by host page tables lack content tokens "
            "(zero-page/dedup diagnostics degraded)",
            count=token_missing,
        )
    if dump.frame_refcounts:
        mismatch = 0
        for fid in sorted(set(dump.frame_refcounts) | set(sharers)):
            expected = dump.frame_refcounts.get(fid)
            if expected is None:
                continue
            if expected != sharers.get(fid, 0):
                mismatch += abs(expected - sharers.get(fid, 0))
        if mismatch:
            report.add(
                "refcount-mismatch", "",
                "dumped frame refcounts disagree with host PTE sharer "
                "counts (collection skew while KSM was scanning)",
                count=mismatch,
            )


def validate_dump(dump: SystemDump) -> ValidationReport:
    """Run every cross-layer invariant check on ``dump``."""
    report = ValidationReport()
    if not dump.guests and dump.host.page_tables:
        report.add(
            "no-analyzable-guests", "",
            "host tables were collected but no guest dump survived",
            count=len(dump.host.page_tables),
        )
    for guest in dump.guests:
        _validate_guest(report, guest)
    _validate_host(report, dump)
    report.sort()
    return report


def validate_compression(physmem, stores) -> ValidationReport:
    """Check compressed-pool vs host-memory accounting consistency.

    Duck-typed against :class:`repro.mem.physmem.HostPhysicalMemory` and
    any iterable of :class:`repro.mem.compression.CompressedRamStore`
    objects backed by it:

    * ``compression-pool-mismatch`` — the bytes the host charges for side
      pools differ from what the stores' pool entries actually hold, i.e.
      compressed memory is vanishing from (or being double-counted in)
      ``bytes_in_use``;
    * ``compression-stats-drift`` — a store's running
      ``bytes_stored_compressed`` counter disagrees with a recount of its
      own pool entries.
    """
    report = ValidationReport()
    audited_total = 0
    for store in stores:
        audited = store.audit_pool_bytes()
        audited_total += audited
        if audited != store.stats.bytes_stored_compressed:
            report.add(
                "compression-stats-drift", "",
                f"store counter says "
                f"{store.stats.bytes_stored_compressed} B compressed but "
                f"its pool entries sum to {audited} B",
                count=store.pool_pages,
            )
    if audited_total != physmem.pool_bytes:
        report.add(
            "compression-pool-mismatch", "",
            f"host charges {physmem.pool_bytes} B of pool memory but the "
            f"compressed stores hold {audited_total} B",
        )
    report.sort()
    return report


def validate_thp(physmem) -> ValidationReport:
    """Check the live huge-block overlay's invariants.

    Duck-typed against :class:`repro.mem.physmem.HostPhysicalMemory`.
    The two invariant families the huge-page tentpole promises:

    * ``thp-shared-in-block`` — no merged (KSM-stable) or shared
      (refcount > 1) or dead frame may sit inside an *intact* huge
      block: split-on-KSM-merge must have dissolved the block before
      any sharing happened;
    * ``thp-block-accounting`` — the block overlay's books are exact:
      every member frame's back-pointer names its block, the owning
      page table still maps each member vpn to the recorded frame, and
      the formed/split counters reconcile with the intact population.
    """
    report = ValidationReport()
    for block in physmem.iter_blocks():
        shared = 0
        broken = 0
        for offset, fid in enumerate(block.fids):
            if not physmem.is_live(fid):
                shared += 1
                continue
            if physmem.states[fid] == STABLE or physmem.refs[fid] != 1:
                shared += 1
            if physmem.block_of(fid) != block.bid:
                broken += 1
            if block.table.translate(block.base_vpn + offset) != fid:
                broken += 1
        if shared:
            report.add(
                "thp-shared-in-block", block.table.name,
                f"intact huge block {block.bid} at "
                f"{block.base_vpn:#x} holds merged/shared/dead frames "
                "(split-on-KSM-merge was bypassed)",
                count=shared,
            )
        if len(block.fids) != block.npages:
            broken += 1
        if broken:
            report.add(
                "thp-block-accounting", block.table.name,
                f"huge block {block.bid} bookkeeping is inconsistent "
                "(back-pointers or mappings disagree with the block map)",
                count=broken,
            )
    intact = physmem.blocks_intact
    formed = physmem.blocks_formed
    split = physmem.blocks_split
    if formed - split != intact:
        report.add(
            "thp-block-accounting", "",
            f"block counters do not reconcile: formed {formed} - "
            f"split {split} != intact {intact}",
        )
    report.sort()
    return report


def validate_scanner(scanner) -> ValidationReport:
    """Check the live KSM scanner's bookkeeping invariants.

    Unlike :func:`validate_dump` this inspects the scanner itself, not a
    collected dump:

    * ``ksm-duplicate-table-name`` — two registered tables share a name
      (their volatility histories would be indistinguishable in dumps);
    * ``ksm-volatility-leak`` — the per-table vpn → last-token map holds
      entries for vpns that are neither mapped nor pending in the dirty
      log (the unbounded-growth leak the scanner prunes at pass ends).
    """
    report = ValidationReport()
    names = Counter(table.name for table in scanner.registered_tables)
    for name, occurrences in sorted(names.items()):
        if occurrences > 1:
            report.add(
                "ksm-duplicate-table-name", name,
                f"{occurrences} registered tables share the name {name!r}",
                count=occurrences,
            )
    for table in scanner.registered_tables:
        tracked = scanner.volatility_tracked(table)
        if not tracked:
            continue
        pending = set(table.pending_dirty_vpns())
        leaked = sum(
            1
            for vpn in tracked
            if not table.is_mapped(vpn) and vpn not in pending
        )
        if leaked:
            report.add(
                "ksm-volatility-leak", table.name,
                "volatility history tracks vpns that are no longer "
                "mapped and not pending in the dirty log",
                count=leaked,
            )
    report.sort()
    return report
