"""Lowering a :class:`~repro.core.dump.SystemDump` to flat columns.

The columnar pipeline never chases per-page dicts.  This module builds,
once per dump:

* a :class:`Registry` — the interned string side of the analysis: every
  VMA/owner tag mapped to an integer *rank* whose numeric order equals
  the lexicographic tag order (so the owner-election tie-break on the
  tag survives vectorization),
  plus interned :class:`~repro.core.accounting.UserKey` users and
  ``(user, category)`` accounting cells;
* per guest, a :class:`GuestTables` — the memslot array as an interval
  table keyed by ``base_gfn`` whose payload is the affine
  ``host_base_vpn - base_gfn`` delta (one vectorized ``searchsorted`` +
  add replaces the per-page ``translate_gfn`` bisect), the merged
  host-vpn cover of the slots (the QEMU-overhead membership test), the
  QEMU host page table as a sorted equi-join table, and the guest
  kernel's gfn-ownership map as a ``gfn → tag rank`` equi-join table
  (one rank per owner record, gathered through the dump's record ids);
* per process, a :class:`ProcessTables` — the dump's vpn/gfn columns as
  they are, plus the VMA list as an interval table whose payload
  indexes aligned per-VMA tag-rank / cell-id columns.

Everything downstream (:mod:`repro.core.columnar.pipeline`) is pure
column algebra on these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.accounting import UserKey, UserKind
from repro.core.categories import MemoryCategory, categorize_tag
from repro.core.dump import GuestDump, GuestProcessDump, SystemDump
from repro.core.translate import qemu_table_name
from repro.guestos.kernel import OwnerKind
from repro.hypervisor.kvm import memslot_columns

from .backend import (
    ExactTable,
    IntervalTable,
    MergedIntervals,
    column,
    exact_build,
    membership_build,
)

__all__ = [
    "GuestTables",
    "ProcessTables",
    "Registry",
    "TAG_ANON",
    "TAG_KERNEL_FREE",
    "TAG_KERNEL_UNKNOWN",
    "TAG_QEMU",
    "build_registry",
    "lower_guest",
    "lower_process",
]

#: Synthetic tags the dict pipeline introduces outside the VMA tables.
TAG_ANON = "anon"
TAG_QEMU = "qemu"
TAG_KERNEL_UNKNOWN = "kernel:unknown"
TAG_KERNEL_FREE = "kernel:free"


@dataclass
class Registry:
    """Interned tags, users and accounting cells for one dump.

    ``tag_rank`` is total and lexicographic over every tag the dump can
    ever feed to accounting, so comparing ranks is exactly comparing tag
    strings — the last component of the ownership sort key.
    """

    tag_rank: Dict[str, int]
    users: List[UserKey] = field(default_factory=list)
    cells: List[Tuple[UserKey, Optional[MemoryCategory]]] = (
        field(default_factory=list)
    )
    _user_ids: Dict[UserKey, int] = field(default_factory=dict)
    _cell_ids: Dict[
        Tuple[UserKey, Optional[MemoryCategory]], int
    ] = field(default_factory=dict)
    #: cell id -> user id (the PSS group-by recovers users from cells).
    cell_user: List[int] = field(default_factory=list)

    def user_id(self, user: UserKey) -> int:
        found = self._user_ids.get(user)
        if found is None:
            found = len(self.users)
            self.users.append(user)
            self._user_ids[user] = found
        return found

    def cell_id(
        self, user: UserKey, category: Optional[MemoryCategory]
    ) -> int:
        key = (user, category)
        found = self._cell_ids.get(key)
        if found is None:
            found = len(self.cells)
            self.cells.append(key)
            self._cell_ids[key] = found
            self.cell_user.append(self.user_id(user))
        return found


def build_registry(dump: SystemDump) -> Registry:
    """Collect every tag the accounting can see and rank them.

    Tags come from the VMA records and the guests' owner records, never
    from a per-page column.
    """
    tags = {TAG_ANON, TAG_QEMU, TAG_KERNEL_UNKNOWN, TAG_KERNEL_FREE}
    for guest in dump.guests:
        for process in guest.processes:
            tags.update(vma.tag for vma in process.vmas)
        tags.update(owner.tag for owner in guest.owner_records)
    return Registry(
        tag_rank={tag: rank for rank, tag in enumerate(sorted(tags))}
    )


@dataclass
class ProcessTables:
    """One guest process, lowered."""

    process: GuestProcessDump
    user: UserKey
    user_id: int
    #: the dump's aligned page-table columns (the live table's order).
    vpns: object
    gfns: object
    #: VMA intervals; payload indexes the aligned per-VMA columns below.
    vma_table: IntervalTable
    #: per-VMA tag rank and accounting cell, by original VMA index.
    vma_ranks: object
    vma_cells: object
    #: fallbacks for pages outside every VMA (the dict path's "anon").
    anon_rank: int
    anon_cell: int


def lower_process(
    guest: GuestDump, process: GuestProcessDump, registry: Registry
) -> ProcessTables:
    kind = UserKind.JAVA if process.is_java else UserKind.PROCESS
    user = UserKey(kind, process.pid, guest.vm_index, guest.vm_name)
    user_id = registry.user_id(user)
    vma_ranks = []
    vma_cells = []
    for vma in process.vmas:
        vma_ranks.append(registry.tag_rank[vma.tag])
        vma_cells.append(
            registry.cell_id(user, categorize_tag(vma.tag))
        )
    return ProcessTables(
        process=process,
        user=user,
        user_id=user_id,
        vpns=process.page_table.keys,
        gfns=process.page_table.values,
        vma_table=process.vma_table(),
        vma_ranks=column(vma_ranks, count=len(vma_ranks)),
        vma_cells=column(vma_cells, count=len(vma_cells)),
        anon_rank=registry.tag_rank[TAG_ANON],
        anon_cell=registry.cell_id(user, categorize_tag(TAG_ANON)),
    )


@dataclass
class GuestTables:
    """One guest VM, lowered (everything but its processes)."""

    guest: GuestDump
    #: base_gfn intervals; payload is ``host_base_vpn - base_gfn`` so a
    #: hit resolves as ``host_vpn = gfn + payload``.
    slot_table: IntervalTable
    #: merged host-vpn cover of all memslots (QEMU-overhead test).
    slot_host_cover: MergedIntervals
    #: the QEMU process's host page table: host vpn -> frame id.
    host_table: ExactTable
    #: guest kernel ownership: gfn -> tag rank (FREE already folded in).
    owner_table: ExactTable
    kernel_user: UserKey
    kernel_cell: int
    unknown_rank: int
    vm_self_user: UserKey
    vm_self_cell: int
    qemu_rank: int


def lower_guest(
    dump: SystemDump, guest: GuestDump, registry: Registry
) -> GuestTables:
    """Lower one guest of the dump ``registry`` was built from."""
    _bases, npages, host_bases = memslot_columns(guest.memslots)
    slot_host_cover = membership_build(
        (host, host + count)
        for host, count in zip(host_bases, npages)
    )
    host = dump.host.page_tables.get(qemu_table_name(guest.vm_name))
    host_table = (
        exact_build(host.keys, host.values) if host is not None
        else exact_build([], [])
    )
    tag_rank = registry.tag_rank
    free_rank = tag_rank[TAG_KERNEL_FREE]
    record_ranks = [
        free_rank if owner.kind is OwnerKind.FREE else tag_rank[owner.tag]
        for owner in guest.owner_records
    ]
    owners = guest.gfn_owners
    owner_table = exact_build(
        owners.keys,
        column(record_ranks, count=len(record_ranks))[owners.values],
    )
    kernel_user = UserKey(
        UserKind.KERNEL, -1, guest.vm_index, guest.vm_name
    )
    vm_self_user = UserKey(
        UserKind.VM_SELF, -1, guest.vm_index, guest.vm_name
    )
    return GuestTables(
        guest=guest,
        slot_table=guest.slot_table(),
        slot_host_cover=slot_host_cover,
        host_table=host_table,
        owner_table=owner_table,
        kernel_user=kernel_user,
        kernel_cell=registry.cell_id(kernel_user, None),
        unknown_rank=tag_rank[TAG_KERNEL_UNKNOWN],
        vm_self_user=vm_self_user,
        vm_self_cell=registry.cell_id(vm_self_user, None),
        qemu_rank=tag_rank[TAG_QEMU],
    )
