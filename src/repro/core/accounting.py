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

Both operate purely on a :class:`~repro.core.dump.SystemDump` and run on
the columnar pipeline of :mod:`repro.core.columnar`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.categories import MemoryCategory
from repro.core.dump import SystemDump
from repro.core.translate import qemu_table_name


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

    def total_usage_bounds(self) -> Tuple[int, int]:
        """[lower, upper] for backed physical memory across all users.

        For any damaged dump the clean-run total lies inside these
        bounds: the lower bound is what survived attribution, the upper
        bound adds every page the validation layer flagged as lost.
        """
        total = self.total_usage()
        return total, total + self.total_unattributable()


def owner_oriented_accounting(
    dump: SystemDump, mapping_fids: Optional[list] = None
) -> OwnerAccounting:
    """The paper's accounting: one owner per frame, the rest share free.

    The owner — by user kind (Java first), then smallest PID, then VM
    order, then tag — is charged the frame once, under the category of
    its own mapping; every further mapping — other users, and any
    additional mappings the owner itself has — adds the page size to
    that user's *shared* tally.  Summed over all users, ``usage`` equals
    backed physical memory and ``usage + shared`` equals mapped guest
    memory.  Computed by
    :func:`repro.core.columnar.pipeline.owner_accounting_columnar`,
    which appends its mapping rows' fid column to ``mapping_fids``.
    """
    from repro.core.columnar.pipeline import owner_accounting_columnar

    return owner_accounting_columnar(dump, mapping_fids)


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


def distribution_oriented_accounting(dump: SystemDump) -> PssAccounting:
    """Linux-PSS-style accounting: each sharer pays 1/n of the frame.

    Computed by
    :func:`repro.core.columnar.pipeline.distribution_accounting_columnar`.
    """
    from repro.core.columnar.pipeline import distribution_accounting_columnar

    return distribution_accounting_columnar(dump)


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
