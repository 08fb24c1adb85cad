"""System-dump collection: the paper's §II.B measurement tooling.

The analysis never looks at the live system.  It consumes dumps:

* a **crash dump of the host OS** (the host runs a debug kernel so
  crash(8) can walk its page tables) — per-host-process vpn → frame maps;
* **KVM state** retrieved by a host kernel module from the
  ``private_data`` of each VM process's ``kvm-vm`` device — the memslot
  arrays (gfn → host vpn);
* a **virsh dump of each guest VM** (guests also run debug kernels) —
  guest process page tables, VMA tables with the JVM debug tags, and the
  guest kernel's gfn-ownership map.

:func:`collect_system_dump` gathers all three layers into a
:class:`SystemDump`.  Without a fault plan, collection fails loudly when
a kernel is not a debug build, matching the real tooling's requirement.
With a :class:`~repro.faults.FaultPlan`, collection turns *resilient*:
transient dump failures are retried with a bounded deterministic
backoff, guests that stay unanalyzable are quarantined instead of
killing the run, and everything that happened is recorded in a
:class:`CollectionReport` attached to the dump.

Like the paper's tooling, which reads the struct-page array and the page
tables out of a crash dump in bulk, collection copies every per-page
layer into numpy columns (:class:`PageColumns`, :class:`FrameTable`)
straight from the live structures; no layer is held as a per-page dict.
VMAs and memslots stay record lists (a handful per process or guest).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.columnar.backend import (
    MISS, IntervalTable, column, interval_build, interval_lookup, marked,
)
from repro.errors import DumpUnanalyzableError
from repro.faults.inject import inject_guest_faults, inject_system_faults
from repro.faults.plan import (
    BACKOFF_SCHEDULE_MS,
    MAX_DUMP_ATTEMPTS,
    FaultKind,
    FaultPlan,
    InjectedFault,
)
from repro.guestos.kernel import GuestKernel, PageOwner
from repro.hypervisor.kvm import KvmGuestVm, KvmHost, MemSlot, memslot_columns
from repro.mem.physmem import FREE

__all__ = [
    "CollectionReport",
    "DumpUnanalyzableError",
    "FrameTable",
    "GuestCollectionRecord",
    "GuestDump",
    "GuestProcessDump",
    "HostDump",
    "PageColumns",
    "SystemDump",
    "VmaRecord",
    "collect_system_dump",
    "dump_guest",
    "read_kvm_memslots",
]


@dataclass(frozen=True)
class VmaRecord:
    """One VMA as recorded in the guest dump."""

    start_vpn: int
    npages: int
    tag: str
    file_id: Optional[str] = None

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.npages


class PageColumns:
    """One per-page layer of a dump as two aligned columns.

    ``keys`` (int64) maps to ``values`` row by row: vpn -> gfn for a
    guest process, vpn -> frame id for a host table, gfn -> owner-record
    index for a guest kernel's ownership map.  Collected rows come in
    key order, the order a walk of the live table's leaves (or of the
    owner column) gives, so sums over them add in that order; a fault
    plan may drop rows or change values, never reorder them.
    :meth:`get` bisects a sorted copy of ``keys`` built on first use;
    editing ``values`` in place keeps it valid, new keys need a new
    object.
    """

    __slots__ = ("keys", "values", "_index")

    def __init__(self, keys, values) -> None:
        self.keys = keys
        self.values = values
        self._index = None

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def row_of(self, key: int) -> Optional[int]:
        """The row holding ``key``, or None."""
        if self._index is None:
            order = np.argsort(self.keys, kind="stable")
            self._index = (self.keys[order], order)
        keys, order = self._index
        at = int(np.searchsorted(keys, key))
        if at < keys.shape[0] and keys[at] == key:
            return int(order[at])
        return None

    def get(self, key: int) -> Optional[int]:
        row = self.row_of(key)
        return None if row is None else int(self.values[row])


@dataclass
class FrameTable:
    """The dumped struct-page array: the live frames the collected host
    tables map, sorted by ``fids``, with their content ``tokens``
    (uint64) and mapping ``refcounts``.  ``has_token`` is False where
    collection lost a frame's token; its refcount stays."""

    fids: object
    tokens: object
    refcounts: object
    has_token: object

    def __len__(self) -> int:
        return int(self.fids.shape[0])


class _RecordIndex:
    """A lookup table over a record list, rebuilt when the list changes
    length or :meth:`invalidate_caches` is called (replacing a record in
    place is invisible to the length check)."""

    _generation = 0
    _index: tuple = (None, None)

    def invalidate_caches(self) -> None:
        self._generation += 1

    def _interval_index(self, records, starts, ends, payloads):
        key = (self._generation, len(records))
        if self._index[0] != key:
            self._index = (key, interval_build(starts, ends, payloads))
        return self._index[1]


@dataclass
class GuestProcessDump(_RecordIndex):
    """One guest process: its page table (vpn -> gfn) and VMA map."""

    pid: int
    name: str
    page_table: PageColumns
    vmas: List[VmaRecord]

    @property
    def is_java(self) -> bool:
        """Java processes are identified by their JVM VMAs."""
        return any(vma.tag.startswith("java:") for vma in self.vmas)

    def vma_table(self) -> IntervalTable:
        """The VMAs as an interval table; payloads index ``vmas``."""
        vmas = self.vmas
        return self._interval_index(
            vmas, [vma.start_vpn for vma in vmas],
            [vma.end_vpn for vma in vmas], range(len(vmas)),
        )

    def vma_of(self, vpn: int) -> Optional[VmaRecord]:
        """The VMA containing ``vpn``.  When VMAs overlap — which only a
        damaged dump produces — the latest-starting one wins."""
        index = int(interval_lookup(self.vma_table(), column([vpn]))[0])
        return None if index == MISS else self.vmas[index]


@dataclass
class GuestDump(_RecordIndex):
    """virsh dump of one guest VM plus its KVM memslots.

    ``gfn_owners`` maps each gfn the kernel labelled to an int32 index
    into ``owner_records``, the :class:`PageOwner` records the kernel
    interned.
    """

    vm_name: str
    vm_index: int
    memslots: List[MemSlot]
    processes: List[GuestProcessDump]
    gfn_owners: PageColumns
    owner_records: List[PageOwner]
    guest_npages: int

    def slot_table(self) -> IntervalTable:
        """The memslots as an interval table over gfns whose payload is
        the affine ``host_base_vpn - base_gfn`` shift."""
        bases, npages, host_bases = memslot_columns(self.memslots)
        return self._interval_index(
            self.memslots, bases,
            [base + count for base, count in zip(bases, npages)],
            [host - base for base, host in zip(bases, host_bases)],
        )

    def translate_gfn(self, gfn: int) -> Optional[int]:
        """gfn -> host vpn; overlapping slots (a damaged dump) resolve to
        the latest-based containing slot."""
        shift = int(interval_lookup(self.slot_table(), column([gfn]))[0])
        return None if shift == MISS else gfn + shift


@dataclass
class HostDump:
    """Crash dump of the host: per-process page tables (vpn -> frame id)."""

    page_size: int
    page_tables: Dict[str, PageColumns]

    def frame_of(self, table_name: str, vpn: int) -> Optional[int]:
        table = self.page_tables.get(table_name)
        return None if table is None else table.get(vpn)


@dataclass
class GuestCollectionRecord:
    """What happened while dumping one guest."""

    vm_name: str
    vm_index: int
    attempts: int = 0
    retries: int = 0
    backoff_ms: List[int] = field(default_factory=list)
    quarantined: bool = False
    reason: str = ""
    faults: List[InjectedFault] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "vm_name": self.vm_name,
            "vm_index": self.vm_index,
            "attempts": self.attempts,
            "retries": self.retries,
            "backoff_ms": list(self.backoff_ms),
            "quarantined": self.quarantined,
            "reason": self.reason,
            "faults": [fault.as_dict() for fault in self.faults],
        }


@dataclass
class CollectionReport:
    """Structured outcome of one resilient collection."""

    guests: List[GuestCollectionRecord] = field(default_factory=list)
    fault_seed: Optional[int] = None

    @property
    def quarantined_vms(self) -> List[str]:
        return [g.vm_name for g in self.guests if g.quarantined]

    @property
    def total_retries(self) -> int:
        return sum(g.retries for g in self.guests)

    def record(self, vm_name: str) -> Optional[GuestCollectionRecord]:
        for guest in self.guests:
            if guest.vm_name == vm_name:
                return guest
        return None

    def faults_injected(self) -> List[InjectedFault]:
        return [fault for g in self.guests for fault in g.faults]

    def fault_kinds_injected(self) -> List[FaultKind]:
        return sorted(
            {fault.kind for fault in self.faults_injected()},
            key=lambda kind: kind.value,
        )

    def to_json(self) -> str:
        """Deterministic serialization (byte-identical per seed)."""
        payload = {
            "fault_seed": self.fault_seed,
            "guests": [g.as_dict() for g in self.guests],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def render(self) -> str:
        lines = ["Collection report", "================="]
        for guest in self.guests:
            status = "QUARANTINED" if guest.quarantined else "ok"
            line = (
                f"  {guest.vm_name:<8} {status:<12} "
                f"attempts={guest.attempts} retries={guest.retries}"
            )
            if guest.backoff_ms:
                line += f" backoff_ms={guest.backoff_ms}"
            if guest.reason:
                line += f"  ({guest.reason})"
            lines.append(line)
            for fault in guest.faults:
                lines.append(f"      fault {fault.kind.value}: {fault.detail}")
        if not self.guests:
            lines.append("  (no guests attempted)")
        return "\n".join(lines)


@dataclass
class SystemDump:
    """All translation layers, frozen at collection time."""

    host: HostDump
    guests: List[GuestDump]
    #: the frames the host tables map: tokens for zero-page and dedup
    #: diagnostics, refcounts for validation against PTE sharer counts.
    frames: FrameTable
    #: how collection went (attached by :func:`collect_system_dump`).
    collection: Optional[CollectionReport] = None

    def guest(self, vm_name: str) -> GuestDump:
        for guest in self.guests:
            if guest.vm_name == vm_name:
                return guest
        available = ", ".join(
            repr(guest.vm_name) for guest in self.guests
        ) or "none"
        raise KeyError(
            f"no guest {vm_name!r} in dump (available: {available})"
        )


def read_kvm_memslots(vm: KvmGuestVm) -> List[MemSlot]:
    """What the paper's host kernel module does: pull the memslot array
    out of the ``kvm-vm`` device's ``private_data``."""
    return list(vm.device.private_data["memslots"])


def dump_guest(
    vm: KvmGuestVm, kernel: GuestKernel, vm_index: int
) -> GuestDump:
    """Take a virsh dump of one guest (requires a debug guest kernel)."""
    if not kernel.debug_kernel:
        raise DumpUnanalyzableError(
            f"guest {vm.name!r} runs a non-debug kernel; crash(8) cannot "
            "walk its page tables (install the debuginfo kernel)"
        )
    processes = []
    for process in kernel.processes:
        vmas = [
            VmaRecord(vma.start_vpn, vma.npages, vma.tag,
                      vma.backing.file_id if vma.backing else None)
            for vma in process.vmas
        ]
        processes.append(GuestProcessDump(
            process.pid, process.name,
            PageColumns(*process.page_table.columns()), vmas,
        ))
    gfns, owner_ids, records = kernel.owner_columns()
    return GuestDump(
        vm.name, vm_index, read_kvm_memslots(vm), processes,
        PageColumns(gfns, owner_ids), records, vm.guest_npages,
    )


def _dump_guest_resilient(
    vm: KvmGuestVm,
    kernel: GuestKernel,
    index: int,
    faults: FaultPlan,
    record: GuestCollectionRecord,
) -> Optional[GuestDump]:
    """One guest under the fault plan: retry, inject, or quarantine."""
    kinds = faults.decide(vm.name)
    if FaultKind.NON_DEBUG_KERNEL in kinds:
        record.faults.append(InjectedFault(
            FaultKind.NON_DEBUG_KERNEL, vm.name,
            "guest booted without the debuginfo kernel",
        ))
    non_debug = (
        FaultKind.NON_DEBUG_KERNEL in kinds or not kernel.debug_kernel
    )
    if non_debug:
        record.attempts = 1
        record.quarantined = True
        record.reason = (
            "non-debug kernel: crash(8) cannot walk its page tables"
        )
        return None
    failing_attempts = 0
    if FaultKind.TRANSIENT_DUMP_FAILURE in kinds:
        failing_attempts = faults.transient_failures(vm.name)
        record.faults.append(InjectedFault(
            FaultKind.TRANSIENT_DUMP_FAILURE, vm.name,
            f"first {failing_attempts} dump attempt(s) fail",
        ))
    for attempt in range(1, MAX_DUMP_ATTEMPTS + 1):
        record.attempts = attempt
        if attempt <= failing_attempts:
            if attempt < MAX_DUMP_ATTEMPTS:
                record.retries += 1
                record.backoff_ms.append(BACKOFF_SCHEDULE_MS[
                    min(attempt - 1, len(BACKOFF_SCHEDULE_MS) - 1)
                ])
            continue
        try:
            guest = dump_guest(vm, kernel, index)
        except DumpUnanalyzableError as exc:
            record.quarantined = True
            record.reason = str(exc)
            return None
        record.faults.extend(inject_guest_faults(guest, kinds, faults))
        return guest
    record.quarantined = True
    record.reason = (
        f"transient dump failure persisted across "
        f"{MAX_DUMP_ATTEMPTS} attempts"
    )
    return None


def collect_system_dump(
    host: KvmHost,
    kernels: Dict[str, GuestKernel],
    host_debug_kernel: bool = True,
    faults: Optional[FaultPlan] = None,
) -> SystemDump:
    """Collect the full three-layer dump for a KVM host.

    ``kernels`` maps guest VM name → its :class:`GuestKernel` (the virsh
    dump source).  Guests without an entry are skipped (their memory shows
    up only as VM-process pages).

    Without ``faults``, a non-debug kernel raises
    :class:`DumpUnanalyzableError` — the historical strict behaviour.
    With a fault plan, collection is resilient: unusable guests are
    quarantined (the dump proceeds with the survivors) and the attached
    :class:`CollectionReport` records attempts, retries, backoff and
    every fault injected.
    """
    if not host_debug_kernel:
        raise DumpUnanalyzableError(
            "the host runs a non-debug kernel; crash(8) cannot analyse "
            "the host crash dump"
        )
    page_tables: Dict[str, PageColumns] = {}
    guests: List[GuestDump] = []
    report = CollectionReport(
        fault_seed=faults.seed if faults is not None else None
    )
    attempted: List[str] = []
    for index, vm in enumerate(host.guests):
        page_tables[vm.page_table.name] = PageColumns(
            *vm.page_table.columns()
        )
        kernel = kernels.get(vm.name)
        if kernel is None:
            continue
        record = GuestCollectionRecord(vm_name=vm.name, vm_index=index)
        report.guests.append(record)
        if faults is None:
            guest = dump_guest(vm, kernel, index)
            record.attempts = 1
            guests.append(guest)
            continue
        attempted.append(vm.name)
        guest = _dump_guest_resilient(vm, kernel, index, faults, record)
        if guest is not None:
            guests.append(guest)
    # The struct-page array read: one gather per column over the live
    # frames the tables map (a mark pass finds them, freed ones skipped).
    physmem = host.physmem
    fids = np.flatnonzero(
        marked(len(physmem.states), (t.values for t in page_tables.values()))
        & (np.frombuffer(physmem.states, dtype=np.uint8) != FREE)
    )
    frames = FrameTable(
        fids,
        np.frombuffer(physmem.tokens, dtype=np.uint64)[fids],
        np.frombuffer(physmem.refs, dtype=np.int64)[fids],
        np.ones(fids.shape[0], dtype=bool),
    )
    dump = SystemDump(
        host=HostDump(page_size=host.page_size, page_tables=page_tables),
        guests=guests,
        frames=frames,
        collection=report,
    )
    if faults is not None and attempted:
        guest_kinds = {name: faults.decide(name) for name in attempted}
        for fault in inject_system_faults(dump, faults, guest_kinds):
            record = report.record(fault.vm_name)
            if record is not None:
                record.faults.append(fault)
    return dump
