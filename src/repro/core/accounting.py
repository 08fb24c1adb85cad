"""Frame attribution: owner-oriented and distribution-oriented accounting.

Once the translation layers are walked, every backed host frame has a list
of *mappings* — (who, via which VMA) uses it.  The paper's §II.A defines
two policies for splitting shared frames:

* **Owner-oriented** (the paper's choice): one mapping owns the frame and
  is charged its full size; every other mapping gets the page "for free"
  and is tallied as *shared* bytes.  A Java process is always preferred as
  owner; among Java processes, the one with the smallest PID wins.  The
  benefit: the shared tally of a non-primary process directly reads as
  "the additional memory needed to run another such process".

* **Distribution-oriented** (Linux PSS): each of ``n`` sharers is charged
  ``page_size / n``.

Both operate purely on a :class:`~repro.core.dump.SystemDump`.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.categories import MemoryCategory, categorize_tag
from repro.core.columnar.backend import (
    BACKEND_DICT,
    merge_intervals,
    point_in_intervals,
    resolve_backend,
)
from repro.core.dump import SystemDump
from repro.core.translate import (
    iter_process_frames,
    iter_vm_process_pages,
    qemu_table_name,
    resolve_gfn,
)
from repro.guestos.kernel import OwnerKind


class UserKind(enum.IntEnum):
    """Who maps a frame; the integer order is the ownership priority."""

    JAVA = 0
    PROCESS = 1
    KERNEL = 2
    VM_SELF = 3


@dataclass(frozen=True, order=True)
class UserKey:
    """Identity of a memory user across the whole host."""

    kind: UserKind
    pid: int  # -1 for kernel / VM-self users
    vm_index: int
    vm_name: str

    @property
    def is_java(self) -> bool:
        return self.kind is UserKind.JAVA


@dataclass(frozen=True)
class Mapping:
    """One page-table mapping of one frame."""

    user: UserKey
    category: Optional[MemoryCategory]
    tag: str


#: fid -> all mappings of that frame.
FrameUsage = Dict[int, List[Mapping]]


def build_frame_usage(dump: SystemDump) -> FrameUsage:
    """Attribute every backed frame to its users.

    Guest-process pages (including file mappings pulled from the guest page
    cache) belong to the process; guest pages backed on the host but not
    mapped by any process belong to the guest kernel ("including buffers
    and caches", Fig. 2); QEMU pages outside the guest-memory slots belong
    to the guest VM itself.
    """
    usage: FrameUsage = defaultdict(list)
    for guest in dump.guests:
        claimed_gfns = set()
        for process in guest.processes:
            kind = UserKind.JAVA if process.is_java else UserKind.PROCESS
            user = UserKey(kind, process.pid, guest.vm_index, guest.vm_name)
            for _vpn, gfn, fid, vma in iter_process_frames(
                dump, guest, process
            ):
                claimed_gfns.add(gfn)
                tag = vma.tag if vma else "anon"
                usage[fid].append(
                    Mapping(user, categorize_tag(tag), tag)
                )
        kernel_user = UserKey(
            UserKind.KERNEL, -1, guest.vm_index, guest.vm_name
        )
        for gfn in range(guest.guest_npages):
            if gfn in claimed_gfns:
                continue
            fid = resolve_gfn(dump, guest, gfn)
            if fid is None:
                continue
            owner = guest.gfn_owners.get(gfn)
            tag = owner.tag if owner else "kernel:unknown"
            if owner is not None and owner.kind is OwnerKind.FREE:
                tag = "kernel:free"
            usage[fid].append(Mapping(kernel_user, None, tag))
        # QEMU's own pages: host vpns outside every memslot.  The slot
        # cover is merged once per guest; the membership test is one
        # bisect per page instead of a scan of the whole slot array.
        vm_self_user = UserKey(
            UserKind.VM_SELF, -1, guest.vm_index, guest.vm_name
        )
        slot_cover = merge_intervals(
            (slot.host_base_vpn, slot.host_base_vpn + slot.npages)
            for slot in guest.memslots
        )
        for host_vpn, fid in iter_vm_process_pages(dump, guest):
            if not point_in_intervals(slot_cover, host_vpn):
                usage[fid].append(Mapping(vm_self_user, None, "qemu"))
    return usage


@dataclass
class CategoryUsage:
    """Byte tallies for one (user, category) cell."""

    usage_bytes: int = 0
    shared_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Mapped bytes: what the guest believes it uses."""
        return self.usage_bytes + self.shared_bytes


@dataclass
class OwnerAccounting:
    """Owner-oriented result: per-user, per-category tallies.

    ``unattributable_bytes`` only fills when :func:`apply_degradation`
    runs over a damaged dump: bytes known to be resident but impossible
    to classify.  Clean dumps leave it empty, so every figure stays
    bit-identical to the strict pipeline.
    """

    page_size: int
    cells: Dict[UserKey, Dict[Optional[MemoryCategory], CategoryUsage]] = (
        field(default_factory=dict)
    )
    #: per-user resident-but-unclassifiable bytes (degraded dumps only).
    unattributable_bytes: Dict[UserKey, int] = field(default_factory=dict)
    #: unclassifiable bytes not assignable to any user (collection skew).
    unassigned_unattributable_bytes: int = 0

    def cell(
        self, user: UserKey, category: Optional[MemoryCategory]
    ) -> CategoryUsage:
        per_user = self.cells.setdefault(user, {})
        entry = per_user.get(category)
        if entry is None:
            entry = CategoryUsage()
            per_user[category] = entry
        return entry

    # -- aggregations ---------------------------------------------------

    def users(self) -> List[UserKey]:
        return sorted(self.cells.keys())

    def java_users(self) -> List[UserKey]:
        return [user for user in self.users() if user.is_java]

    def usage_of(self, user: UserKey) -> int:
        return sum(c.usage_bytes for c in self.cells.get(user, {}).values())

    def shared_of(self, user: UserKey) -> int:
        return sum(c.shared_bytes for c in self.cells.get(user, {}).values())

    def total_of(self, user: UserKey) -> int:
        return self.usage_of(user) + self.shared_of(user)

    def total_usage(self) -> int:
        """Physical bytes attributed across all users (= backed frames)."""
        return sum(self.usage_of(user) for user in self.cells)

    def category_usage(
        self, user: UserKey, category: Optional[MemoryCategory]
    ) -> CategoryUsage:
        return self.cells.get(user, {}).get(category, CategoryUsage())

    # -- degraded-mode bounds -------------------------------------------

    def unattributable_of(self, user: UserKey) -> int:
        return self.unattributable_bytes.get(user, 0)

    def total_unattributable(self) -> int:
        return (
            sum(self.unattributable_bytes.values())
            + self.unassigned_unattributable_bytes
        )

    def usage_bounds_of(self, user: UserKey) -> Tuple[int, int]:
        """[lower, upper] physical bytes of ``user``: the attributed
        tally, plus whatever damage made unattributable."""
        usage = self.usage_of(user)
        return usage, usage + self.unattributable_of(user)

    def category_bounds(
        self, user: UserKey, category: Optional[MemoryCategory]
    ) -> Tuple[int, int]:
        """[lower, upper] for one cell: any unattributable byte of the
        user could belong to any of its categories."""
        usage = self.category_usage(user, category).usage_bytes
        return usage, usage + self.unattributable_of(user)

    def total_usage_bounds(self) -> Tuple[int, int]:
        """[lower, upper] for backed physical memory across all users.

        For any damaged dump the clean-run total lies inside these
        bounds: the lower bound is what survived attribution, the upper
        bound adds every page the validation layer flagged as lost.
        """
        total = self.total_usage()
        return total, total + self.total_unattributable()


def _owner_sort_key(mapping: Mapping) -> Tuple:
    """Ownership priority: Java first, then smallest PID, then VM order."""
    user = mapping.user
    return (user.kind, user.pid if user.pid >= 0 else 1 << 30,
            user.vm_index, mapping.tag)


def owner_oriented_accounting(
    dump: SystemDump,
    usage: Optional[FrameUsage] = None,
    backend: Optional[str] = None,
) -> OwnerAccounting:
    """The paper's accounting: one owner per frame, the rest share free.

    The owner is charged the frame once, under the category of its own
    mapping; every further mapping — other users, and any additional
    mappings the owner itself has — adds the page size to that user's
    *shared* tally.  Summed over all users, ``usage`` equals backed
    physical memory and ``usage + shared`` equals mapped guest memory.

    ``backend`` selects the pipeline (``None`` reads ``$REPRO_BACKEND``,
    defaulting to ``columnar``): any columnar backend runs
    :func:`repro.core.columnar.owner_accounting_columnar` — same
    tallies, flat arrays instead of per-page ``Mapping`` lists — and
    ``dict`` runs the per-page reference walk below.  A
    pre-built ``usage`` table always takes the dict aggregation (the
    columnar path never materializes one).
    """
    if usage is None:
        resolved = resolve_backend(backend)
        if resolved != BACKEND_DICT:
            from repro.core.columnar.pipeline import (
                owner_accounting_columnar,
            )

            return owner_accounting_columnar(dump, backend=resolved)
        usage = build_frame_usage(dump)
    result = OwnerAccounting(page_size=dump.host.page_size)
    page = dump.host.page_size
    for fid, mappings in usage.items():
        ordered = sorted(mappings, key=_owner_sort_key)
        owner_mapping = ordered[0]
        result.cell(owner_mapping.user, owner_mapping.category).usage_bytes += page
        for mapping in ordered[1:]:
            result.cell(mapping.user, mapping.category).shared_bytes += page
    return result


@dataclass
class PssAccounting:
    """Distribution-oriented (PSS) result."""

    page_size: int
    pss_bytes: Dict[UserKey, float] = field(default_factory=dict)
    rss_bytes: Dict[UserKey, int] = field(default_factory=dict)

    def users(self) -> List[UserKey]:
        return sorted(self.pss_bytes.keys())

    def total_pss(self) -> float:
        return sum(self.pss_bytes.values())


def distribution_oriented_accounting(
    dump: SystemDump,
    usage: Optional[FrameUsage] = None,
    backend: Optional[str] = None,
) -> PssAccounting:
    """Linux-PSS-style accounting: each sharer pays 1/n of the frame.

    ``backend`` as in :func:`owner_oriented_accounting`.  Columnar
    ``rss`` tallies are bit-identical; ``pss`` floats can differ from
    the dict path by summation order (a few ULP).
    """
    if usage is None:
        resolved = resolve_backend(backend)
        if resolved != BACKEND_DICT:
            from repro.core.columnar.pipeline import (
                distribution_accounting_columnar,
            )

            return distribution_accounting_columnar(
                dump, backend=resolved
            )
        usage = build_frame_usage(dump)
    result = PssAccounting(page_size=dump.host.page_size)
    page = dump.host.page_size
    for fid, mappings in usage.items():
        share = page / len(mappings)
        for mapping in mappings:
            user = mapping.user
            result.pss_bytes[user] = result.pss_bytes.get(user, 0.0) + share
            result.rss_bytes[user] = result.rss_bytes.get(user, 0) + page
    return result


# ----------------------------------------------------------------------
# Degraded-mode accounting: turn validation findings into error bars
# ----------------------------------------------------------------------

#: Validation codes whose page counts are pages *lost to attribution*
#: (versus report-only codes that shift labels but keep totals exact).
_DEGRADING_CODES = frozenset({
    "memslot-gap",
    "memslot-overlap",
    "pte-out-of-range",
    "owner-pid-mismatch",
})


def _finding_user(dump: SystemDump, finding) -> Optional[UserKey]:
    """The UserKey a page-level finding charges (None: not user-scoped)."""
    if finding.pid is None:
        return None
    try:
        guest = dump.guest(finding.vm_name)
    except KeyError:
        return None
    if finding.pid == -1:
        return UserKey(
            UserKind.KERNEL, -1, guest.vm_index, guest.vm_name
        )
    for process in guest.processes:
        if process.pid == finding.pid:
            kind = UserKind.JAVA if process.is_java else UserKind.PROCESS
            return UserKey(
                kind, process.pid, guest.vm_index, guest.vm_name
            )
    return None


def apply_degradation(
    accounting: OwnerAccounting,
    dump: SystemDump,
    validation,
    collection=None,
) -> OwnerAccounting:
    """Convert validation findings and quarantines into explicit bounds.

    Every page the validation layer flagged as lost to attribution — a
    gfn no memslot covers, a corrupt PTE, an ambiguous overlap — is
    added to its user's ``unattributable_bytes``; a quarantined guest
    contributes its whole resident VM-process footprint; refcount skew
    lands in the unassigned bucket.  The result: per-user and total
    tallies carry [lower, upper] bounds that contain the clean-run
    value, instead of silently under-reporting.

    ``validation`` is a :class:`repro.core.validate.ValidationReport`;
    ``collection`` (optional) a :class:`repro.core.dump.CollectionReport`.
    Returns ``accounting`` for chaining.
    """
    page = accounting.page_size
    for finding in validation.findings:
        if finding.code == "refcount-mismatch":
            accounting.unassigned_unattributable_bytes += (
                finding.count * page
            )
            continue
        if finding.code not in _DEGRADING_CODES:
            continue
        user = _finding_user(dump, finding)
        if user is None:
            continue
        accounting.unattributable_bytes[user] = (
            accounting.unattributable_of(user) + finding.count * page
        )
    if collection is not None:
        for record in collection.guests:
            if not record.quarantined:
                continue
            table = dump.host.page_tables.get(
                qemu_table_name(record.vm_name), {}
            )
            if not table:
                continue
            user = UserKey(
                UserKind.VM_SELF, -1, record.vm_index, record.vm_name
            )
            accounting.unattributable_bytes[user] = (
                accounting.unattributable_of(user) + len(table) * page
            )
    return accounting
