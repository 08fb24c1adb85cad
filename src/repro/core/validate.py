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
  collection skew while KSM keeps merging);
* frames are conserved through the analysis (``frame-conservation``):
  every frame a surviving guest's host table maps gets at least one
  mapping row of the accounting pipeline, and every row names a frame
  some collected host table maps.

Finding counts are in *pages* (or frames, for the host-level checks),
which is what the degraded-mode accounting uses to bound its numbers.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.columnar.backend import (
    MISS,
    column,
    exact_build,
    exact_lookup,
    interval_lookup,
    marked,
    select,
)
from repro.core.columnar.lower import build_registry
from repro.core.columnar.pipeline import iter_mapping_chunks
from repro.core.dump import GuestDump, SystemDump
from repro.core.translate import qemu_table_name
from repro.faults.plan import FaultKind
from repro.guestos.kernel import OwnerKind
from repro.hypervisor.kvm import memslot_columns
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
    "frame-conservation": Severity.ERROR,
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


def _cover_counts(guest: GuestDump, gfns) -> np.ndarray:
    """How many memslots contain each gfn: slots starting at or below
    it minus slots ending at or below it."""
    bases, npages, _hosts = memslot_columns(guest.memslots)
    starts = np.sort(column(bases))
    ends = np.sort(column([b + n for b, n in zip(bases, npages)]))
    return (
        np.searchsorted(starts, gfns, side="right")
        - np.searchsorted(ends, gfns, side="right")
    )


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


def _add_counts(report, vm_name: str, pid, findings) -> None:
    """Report each ``(code, message, count or mask)`` that counts any."""
    for code, message, count in findings:
        if isinstance(count, np.ndarray):
            count = int(np.count_nonzero(count))
        if count:
            report.add(code, vm_name, message, pid=pid, count=count)


def _validate_guest(report: ValidationReport, guest: GuestDump) -> None:
    _validate_memslots(report, guest)
    owners = guest.gfn_owners
    records = guest.owner_records
    owner_table = exact_build(owners.keys, owners.values)
    for process in guest.processes:
        gfns = process.page_table.values
        in_range = (gfns >= 0) & (gfns < guest.guest_npages)
        cover = _cover_counts(guest, gfns)
        ids = exact_lookup(owner_table, gfns)
        anon_vma = select(column(
            [vma.file_id is None for vma in process.vmas]
        ), interval_lookup(process.vma_table(), process.page_table.keys), 0)
        other_anon = select(column([
            owner.kind is OwnerKind.PROCESS_ANON and owner.pid != process.pid
            for owner in records
        ]), ids, 0)
        _add_counts(report, guest.vm_name, process.pid, [
            ("pte-out-of-range", "PTEs point outside guest physical "
             "memory (corrupt page-table entries)", ~in_range),
            ("memslot-gap", "mapped gfns covered by no memslot "
             "(dropped slot; pages unattributable)",
             in_range & (cover == 0)),
            ("memslot-overlap", "mapped gfns covered by multiple "
             "memslots (translation ambiguous)", in_range & (cover > 1)),
            ("owner-missing", "mapped gfns absent from the gfn-ownership "
             "map (truncated guest dump)", in_range & (ids == MISS)),
            ("owner-pid-mismatch", "anonymous mappings whose gfn the "
             "kernel attributes to a different process (collection skew)",
             in_range & (anon_vma & other_anon).astype(bool)),
        ])
    # Kernel side: allocated gfns must translate through exactly one slot.
    allocated = column(
        [owner.kind is not OwnerKind.FREE for owner in records]
    )[owners.values].astype(bool)
    cover = _cover_counts(guest, owners.keys[allocated])
    dumped_pids = {process.pid for process in guest.processes}
    orphan_pids: Counter = Counter()
    per_record = np.bincount(owners.values, minlength=len(records))
    for owner, count in zip(records, per_record.tolist()):
        if owner.kind is OwnerKind.PROCESS_ANON and count and (
            owner.pid is not None and owner.pid not in dumped_pids
        ):
            orphan_pids[owner.pid] += count
    _add_counts(report, guest.vm_name, -1, [
        ("memslot-gap", "allocated gfns covered by no memslot", cover == 0),
        ("memslot-overlap", "allocated gfns covered by multiple memslots",
         cover > 1),
        ("owner-orphan-pid", f"gfns owned by processes missing from the "
         f"dump (pids {sorted(orphan_pids)}; truncated guest dump)",
         sum(orphan_pids.values())),
    ])


def _validate_host(report: ValidationReport, dump: SystemDump, rows) -> None:
    """Group-by counts of each frame's PTE sharers over the collected
    host tables, against the frame table (tokens, refcounts) and against
    the accounting pipeline's mapping rows, ``rows`` (frame
    conservation)."""
    tables = {
        name: table.values for name, table in dump.host.page_tables.items()
    }
    frames = dump.frames
    if rows is None:
        rows = [
            chunk[0]
            for chunk in iter_mapping_chunks(dump, build_registry(dump))
        ]
    size = 1 + max(
        (int(fids.max()) for fids in (*tables.values(), *rows, frames.fids)
         if fids.shape[0]),
        default=0,
    )
    sharers = np.zeros(size, dtype=np.int64)
    for fids in tables.values():
        sharers += np.bincount(fids, minlength=size)
    has_token = marked(size, [frames.fids[frames.has_token]])
    # Conservation: frames of surviving guests no mapping row claims,
    # plus rows on frames no collected table maps.
    lost = marked(size, (
        tables[name] for name in (
            qemu_table_name(guest.vm_name) for guest in dump.guests
        ) if name in tables
    )) & ~marked(size, rows)
    stray = sum(int(np.count_nonzero(sharers[fids] == 0)) for fids in rows)
    _add_counts(report, "", None, [
        ("frame-token-missing", "frames referenced by host page tables "
         "lack content tokens (zero-page/dedup diagnostics degraded)",
         (sharers > 0) & ~has_token),
        ("refcount-mismatch", "dumped frame refcounts disagree with host "
         "PTE sharer counts (collection skew while KSM was scanning)",
         int(np.abs(frames.refcounts - sharers[frames.fids]).sum())),
        ("frame-conservation", f"{np.count_nonzero(lost)} frames of "
         f"surviving guests claimed by no mapping row, {stray} mapping "
         "rows on frames no table maps",
         int(np.count_nonzero(lost)) + stray),
    ])


def validate_dump(
    dump: SystemDump, mapping_fids: Optional[list] = None
) -> ValidationReport:
    """Run every cross-layer invariant check on ``dump``; the frame
    conservation guard reads the accounting's ``mapping_fids`` when
    given them, else walks the mappings itself."""
    report = ValidationReport()
    if not dump.guests and dump.host.page_tables:
        report.add(
            "no-analyzable-guests", "",
            "host tables were collected but no guest dump survived",
            count=len(dump.host.page_tables),
        )
    for guest in dump.guests:
        _validate_guest(report, guest)
    _validate_host(report, dump, mapping_fids)
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
