"""Reference implementations the production paths are compared against.

Each one is the paper's method written a page or a frame at a time:

* :class:`DictPageTable` — a page table as one ``vpn -> pfn`` dict, its
  dirty log as an insertion-ordered dict and one sink call per logged
  vpn: the reference for the radix :class:`repro.mem.address_space.
  PageTable` (``tests/test_page_table_lockstep.py``).
* :class:`PerPageScanner` — the KSM scanner with its columnar segment
  kernels replaced by the per-page state machine (``_examine``), the
  per-vpn incremental worklist and the stable-tree walk behind the
  history gauges.  Everything else (registration, pass boundaries,
  pruning, cost charging) is the production scanner's.
* :func:`dict_view` — a columnar :class:`~repro.core.dump.SystemDump`
  as the per-page dicts a dump used to be (:class:`DictDump`), with
  bisect lookups over the VMA and memslot records.
* :func:`build_frame_usage` — every backed frame's mappings, listed one
  page at a time through the three translation layers of a dict view.
* :func:`dict_owner_accounting` / :func:`dict_distribution_accounting`
  — the per-frame aggregation over :func:`build_frame_usage`; both
  accept a columnar dump or its dict view.
* :func:`dict_sharing_histogram`, :func:`dict_cross_vm_sharing_matrix`,
  :func:`dict_zero_page_census`, :func:`dict_category_sharing_summary`
  — the per-frame forms of :mod:`repro.core.diagnostics`.
* :func:`canonical_dump` — a dict view as one JSON-ready structure,
  for digests of whole dumps.
* :func:`use_oracle` — swaps the per-page scanner and the dict owner
  accounting into every testbed built afterwards, for scenario-level
  comparisons.
* :func:`write_pages_per_page`, :func:`fault_file_pages_per_page` and
  :func:`page_gfn_per_page` — the guest write path one page at a time
  through every layer (process page table, guest allocator, KVM memslot,
  compressed-pool fault, Satori fill, :meth:`HostPhysicalMemory.write_token`),
  the reference for the bulk ``write_pages`` / ``alloc_gfns`` /
  ``write_gfns`` / ``write_tokens`` chain.
* :func:`page_tokens_per_page` — page tokens of a chunk layout, one page
  at a time, each a BLAKE2b digest of the page's non-zero slices: the
  reference for the equality relation of
  :func:`repro.mem.content.page_tokens`.

Importable from ``tests/`` and ``benchmarks/`` as ``tests.oracle``.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.accounting import (
    OwnerAccounting,
    PssAccounting,
    UserKey,
    UserKind,
)
from repro.core.categories import MemoryCategory, categorize_tag
from repro.core.columnar.backend import merge_intervals, point_in_intervals
from repro.core.diagnostics import ZeroCensus
from repro.core.dump import CollectionReport, VmaRecord
from repro.core.translate import qemu_table_name
from repro.guestos.kernel import OutOfGuestMemoryError, OwnerKind, PageOwner
from repro.hypervisor.kvm import MemSlot
from repro.ksm.index import STABLE
from repro.ksm.scanner import KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.content import ZERO_CONTENT, ZERO_TOKEN
from repro.mem.physmem import STABLE as FRAME_STABLE
from repro.sim.rng import stable_hash64


class DictPageTable:
    """A page table as one ``vpn -> pfn`` dict.

    The dirty log is a dict used as an insertion-ordered set, kept while
    a sink is attached, and each sink is called once per logged vpn.
    Bulk calls that name a taken or repeated vpn map one by one.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: Dict[int, int] = {}
        self._dirty: Dict[int, None] = {}
        self.version = 0
        self.remap_epoch = 0
        self._dirty_sinks: List[Callable[[int], None]] = []

    def map(self, vpn: int, pfn: int) -> None:
        if vpn in self._entries:
            raise ValueError(
                f"{self.name}: vpn {vpn:#x} is already mapped "
                f"(to pfn {self._entries[vpn]:#x})"
            )
        self._entries[vpn] = pfn
        self.version += 1
        self.log_dirty(vpn)

    def map_many(self, vpns, pfns) -> None:
        vpns, pfns = list(vpns), list(pfns)
        entries = self._entries
        if len(set(vpns)) != len(vpns) or not entries.keys().isdisjoint(vpns):
            for vpn, pfn in zip(vpns, pfns):
                self.map(vpn, pfn)
            return
        entries.update(zip(vpns, pfns))
        self.version += len(vpns)
        self.log_dirty_many(vpns)

    def remap(self, vpn: int, pfn: int) -> int:
        try:
            previous = self._entries[vpn]
        except KeyError:
            raise KeyError(
                f"{self.name}: vpn {vpn:#x} is not mapped"
            ) from None
        self._entries[vpn] = pfn
        self.remap_epoch += 1
        return previous

    def unmap(self, vpn: int) -> int:
        try:
            pfn = self._entries.pop(vpn)
        except KeyError:
            raise KeyError(
                f"{self.name}: vpn {vpn:#x} is not mapped"
            ) from None
        self.version += 1
        self.log_dirty(vpn)
        return pfn

    def translate(self, vpn: int) -> Optional[int]:
        return self._entries.get(vpn)

    def translate_many(self, vpns, missing: int = -1) -> List[int]:
        return list(map(self._entries.get, vpns, repeat(missing)))

    def is_mapped(self, vpn: int) -> bool:
        return vpn in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[Tuple[int, int]]:
        """(vpn, pfn) pairs in insertion order."""
        return iter(self._entries.items())

    def log_dirty(self, vpn: int) -> None:
        if self._dirty_sinks:
            self._dirty[vpn] = None
            for sink in self._dirty_sinks:
                sink(vpn)

    def log_dirty_many(self, vpns) -> None:
        for vpn in vpns:
            self.log_dirty(vpn)

    def attach_dirty_sink(self, sink: Callable[[int], None]) -> None:
        if sink not in self._dirty_sinks:
            self._dirty_sinks.append(sink)

    def detach_dirty_sink(self, sink: Callable[[int], None]) -> None:
        if sink in self._dirty_sinks:
            self._dirty_sinks.remove(sink)
        if not self._dirty_sinks:
            self._dirty.clear()

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def pending_dirty_vpns(self) -> Tuple[int, ...]:
        """The logged vpns, in logging order."""
        return tuple(self._dirty)

    def drain_dirty(self) -> List[int]:
        drained = list(self._dirty)
        self._dirty.clear()
        return drained

    def clear_dirty(self) -> None:
        self._dirty.clear()


class PerPageScanner(KsmScanner):
    """The KSM scanner, examining one page at a time, with its
    volatility history as one ``vpn -> token`` dict per table."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._last_tokens: Dict[PageTable, Dict[int, int]] = {}

    def register(self, table: PageTable) -> None:
        super().register(table)
        self._last_tokens[table] = {}

    def unregister(self, table: PageTable) -> None:
        super().unregister(table)
        self._last_tokens.pop(table, None)

    def _prune_last_tokens(self) -> None:
        for table in self._tables:
            last = self._last_tokens[table]
            for vpn in [vpn for vpn in last if not table.is_mapped(vpn)]:
                del last[vpn]

    def volatility_tracked(self, table: PageTable) -> Dict[int, int]:
        return dict(self._last_tokens.get(table, {}))

    def scan_pages(self, budget: int) -> int:
        if budget <= 0 or not self._tables:
            return 0
        if self._idle():
            if self._started_pass:
                self._table_cursor = (
                    self._table_cursor + 2
                ) % len(self._tables)
            return 0
        examined = 0
        empty_rounds = 0
        while examined < budget:
            if self._scan_pos >= len(self._scan_list):
                if not self._advance_table():
                    empty_rounds += 1
                    if empty_rounds > len(self._tables) + 1:
                        self._work_hint = False
                        break
                    continue
                empty_rounds = 0
            vpn = self._scan_list[self._scan_pos]
            self._scan_pos += 1
            self._examine(self._tables[self._table_cursor], vpn)
            examined += 1
            self._pass_examined += 1
        self.stats.pages_scanned += examined
        return examined

    def _install_incremental_worklist(self, table: PageTable) -> None:
        due: Set[int] = set()
        drained = table.drain_dirty()
        if drained:
            self.stats.dirty_log_drained += len(drained)
        last = self._last_tokens[table]
        for vpn in drained:
            if table.is_mapped(vpn):
                due.add(vpn)
                continue
            previous = last.pop(vpn, None)
            if previous is None:
                continue
            node = self._index.lookup(previous)
            if (
                node is not None
                and node[0] != STABLE
                and node[1] is table
                and node[2] == vpn
            ):
                self._index.drop(previous)
        recheck = self._recheck[table]
        if recheck:
            due.update(vpn for vpn in recheck if table.is_mapped(vpn))
            recheck.clear()
        hints = self._cold_hints[table]
        if hints:
            due.update(vpn for vpn in hints if table.is_mapped(vpn))
            hints.clear()
        self._scan_list = sorted(due)
        self._scan_pos = 0

    def _examine(self, table: PageTable, vpn: int) -> None:
        fid = table.translate(vpn)
        if fid is None:
            return
        physmem = self.physmem
        token = physmem.token_of(fid)
        if physmem.states[fid] == FRAME_STABLE:
            return
        node = self._index.lookup(token)
        if node is not None and node[0] == STABLE:
            stable_fid = node[1]
            if (
                physmem.states[stable_fid] != FRAME_STABLE
                or physmem.token_of(stable_fid) != token
            ):
                self._index.drop(token)
                node = None
            elif stable_fid != fid:
                self._split_for_merge(fid)
                physmem.merge_into(table, vpn, stable_fid)
                self.stats.merges += 1
                return
            else:
                return
        last = self._last_tokens[table]
        previous = last.get(vpn)
        last[vpn] = token
        if previous != token:
            self.stats.volatile_skips += 1
            if self.config.scan_policy is not ScanPolicy.FULL:
                self._recheck[table].add(vpn)
            return
        if node is None:
            self._index.set_unstable(token, table, vpn)
            return
        _, partner_table, partner_vpn = node
        if partner_table is table and partner_vpn == vpn:
            return
        partner_fid = partner_table.translate(partner_vpn)
        if partner_fid is None:
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        if physmem.token_of(partner_fid) != token:
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        if partner_fid == fid:
            self._split_for_merge(fid)
            physmem.mark_ksm_stable(fid)
            self._index.set_stable(token, fid)
            return
        self._split_for_merge(partner_fid)
        self._split_for_merge(fid)
        physmem.mark_ksm_stable(partner_fid)
        self._index.set_stable(token, partner_fid)
        physmem.merge_into(table, vpn, partner_fid)
        self.stats.merges += 1

    def _record_history(self) -> None:
        shared = 0
        sharing = 0
        physmem = self.physmem
        for _token, fid in self._index.stable_items():
            if physmem.states[fid] == FRAME_STABLE:
                shared += 1
                sharing += physmem.refs[fid]
        self.history.append((self.clock.now_ms, shared, sharing))


# ----------------------------------------------------------------------
# The dump as per-page dicts, and the per-frame accounting over it
# ----------------------------------------------------------------------


def _latest_containing(starts, records, contains, value):
    """The latest-starting record containing ``value`` (records sorted
    by start), walking back past non-containing later starts."""
    index = bisect_right(starts, value) - 1
    while index >= 0:
        if contains(records[index], value):
            return records[index]
        index -= 1
    return None


@dataclass
class DictProcess:
    pid: int
    name: str
    page_table: Dict[int, int]  # vpn -> gfn
    vmas: List[VmaRecord]

    def __post_init__(self) -> None:
        self._sorted = sorted(self.vmas, key=lambda vma: vma.start_vpn)
        self._starts = [vma.start_vpn for vma in self._sorted]

    @property
    def is_java(self) -> bool:
        return any(vma.tag.startswith("java:") for vma in self.vmas)

    def vma_of(self, vpn: int) -> Optional[VmaRecord]:
        return _latest_containing(
            self._starts, self._sorted,
            lambda vma, v: vma.start_vpn <= v < vma.end_vpn, vpn,
        )


@dataclass
class DictGuest:
    vm_name: str
    vm_index: int
    memslots: List[MemSlot]
    processes: List[DictProcess]
    gfn_owners: Dict[int, PageOwner]
    guest_npages: int

    def __post_init__(self) -> None:
        self._sorted = sorted(self.memslots, key=lambda slot: slot.base_gfn)
        self._bases = [slot.base_gfn for slot in self._sorted]

    def translate_gfn(self, gfn: int) -> Optional[int]:
        slot = _latest_containing(
            self._bases, self._sorted, MemSlot.contains, gfn
        )
        return None if slot is None else slot.to_host_vpn(gfn)


@dataclass
class DictHost:
    page_size: int
    page_tables: Dict[str, Dict[int, int]]  # vpn -> frame id

    def frame_of(self, table_name: str, vpn: int) -> Optional[int]:
        return self.page_tables.get(table_name, {}).get(vpn)


@dataclass
class DictDump:
    host: DictHost
    guests: List[DictGuest]
    frame_tokens: Dict[int, int] = field(default_factory=dict)
    frame_refcounts: Dict[int, int] = field(default_factory=dict)
    collection: Optional[CollectionReport] = None

    def guest(self, vm_name: str) -> DictGuest:
        for guest in self.guests:
            if guest.vm_name == vm_name:
                return guest
        raise KeyError(vm_name)


def _as_dict(columns) -> Dict[int, int]:
    return dict(zip(columns.keys.tolist(), columns.values.tolist()))


def dict_view(dump) -> DictDump:
    """``dump`` as per-page dicts, rows in the columns' order (a dict
    view is returned as it is)."""
    if isinstance(dump, DictDump):
        return dump
    guests = []
    for guest in dump.guests:
        records = guest.owner_records
        owners = guest.gfn_owners
        guests.append(DictGuest(
            guest.vm_name, guest.vm_index, list(guest.memslots),
            [
                DictProcess(p.pid, p.name, _as_dict(p.page_table),
                            list(p.vmas))
                for p in guest.processes
            ],
            dict(zip(
                owners.keys.tolist(),
                [records[index] for index in owners.values.tolist()],
            )),
            guest.guest_npages,
        ))
    frames = dump.frames
    fids = frames.fids.tolist()
    return DictDump(
        DictHost(dump.host.page_size, {
            name: _as_dict(table)
            for name, table in dump.host.page_tables.items()
        }),
        guests,
        {
            fid: token
            for fid, token, known in zip(
                fids, frames.tokens.tolist(), frames.has_token.tolist()
            )
            if known
        },
        dict(zip(fids, frames.refcounts.tolist())),
        dump.collection,
    )


def canonical_dump(dump) -> dict:
    """Every layer of a dump, JSON-ready: table and owner-map rows by
    key, frames by fid, the collection report as serialized."""
    view = dict_view(dump)
    return {
        "page_size": view.host.page_size,
        "host": [
            [name, [list(row) for row in sorted(table.items())]]
            for name, table in view.host.page_tables.items()
        ],
        "frame_tokens": sorted(map(list, view.frame_tokens.items())),
        "frame_refcounts": sorted(map(list, view.frame_refcounts.items())),
        "guests": [
            {
                "vm_name": guest.vm_name,
                "vm_index": guest.vm_index,
                "guest_npages": guest.guest_npages,
                "memslots": [
                    [slot.base_gfn, slot.npages, slot.host_base_vpn]
                    for slot in guest.memslots
                ],
                "processes": [
                    {
                        "pid": process.pid,
                        "name": process.name,
                        "page_table": [
                            list(row)
                            for row in sorted(process.page_table.items())
                        ],
                        "vmas": [
                            [vma.start_vpn, vma.npages, vma.tag, vma.file_id]
                            for vma in process.vmas
                        ],
                    }
                    for process in guest.processes
                ],
                "gfn_owners": [
                    [gfn, owner.kind.value, owner.pid, owner.tag]
                    for gfn, owner in sorted(
                        guest.gfn_owners.items(), key=lambda row: row[0]
                    )
                ],
            }
            for guest in view.guests
        ],
        "collection": (
            json.loads(view.collection.to_json())
            if view.collection is not None else None
        ),
    }


def iter_process_frames(
    dump, guest, process
) -> Iterator[Tuple[int, int, int, Optional[VmaRecord]]]:
    """Yield ``(vpn, gfn, frame_id, vma)`` for every backed page of a
    dict-view process."""
    table_name = qemu_table_name(guest.vm_name)
    for vpn, gfn in process.page_table.items():
        host_vpn = guest.translate_gfn(gfn)
        if host_vpn is None:
            continue
        frame_id = dump.host.frame_of(table_name, host_vpn)
        if frame_id is None:
            continue
        yield vpn, gfn, frame_id, process.vma_of(vpn)


def iter_vm_process_pages(dump, guest) -> Iterator[Tuple[int, int]]:
    """Yield ``(host_vpn, frame_id)`` for every backed page of the QEMU
    process, guest memory and overhead alike."""
    table = dump.host.page_tables.get(qemu_table_name(guest.vm_name), {})
    return iter(table.items())


@dataclass(frozen=True)
class Mapping:
    """One page-table mapping of one frame."""

    user: UserKey
    category: Optional[MemoryCategory]
    tag: str


#: fid -> all mappings of that frame.
FrameUsage = Dict[int, List[Mapping]]


def build_frame_usage(dump) -> FrameUsage:
    """Attribute every backed frame to its users, one page at a time.

    Guest-process pages (including file mappings pulled from the guest page
    cache) belong to the process; guest pages backed on the host but not
    mapped by any process belong to the guest kernel ("including buffers
    and caches", Fig. 2); QEMU pages outside the guest-memory slots belong
    to the guest VM itself.
    """
    dump = dict_view(dump)
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
        table_name = qemu_table_name(guest.vm_name)
        for gfn in range(guest.guest_npages):
            if gfn in claimed_gfns:
                continue
            host_vpn = guest.translate_gfn(gfn)
            fid = (
                None if host_vpn is None
                else dump.host.frame_of(table_name, host_vpn)
            )
            if fid is None:
                continue
            owner = guest.gfn_owners.get(gfn)
            tag = owner.tag if owner else "kernel:unknown"
            if owner is not None and owner.kind is OwnerKind.FREE:
                tag = "kernel:free"
            usage[fid].append(Mapping(kernel_user, None, tag))
        # QEMU's own pages: host vpns outside every memslot.
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


def _owner_sort_key(mapping: Mapping) -> Tuple:
    """Ownership priority: Java first, then smallest PID, then VM order."""
    user = mapping.user
    return (user.kind, user.pid if user.pid >= 0 else 1 << 30,
            user.vm_index, mapping.tag)


def dict_owner_accounting(
    dump, usage: Optional[FrameUsage] = None, mapping_fids=None
) -> OwnerAccounting:
    """Owner-oriented accounting, one frame's mapping list at a time.
    Given a list, ``mapping_fids`` receives one fid per mapping."""
    if usage is None:
        usage = build_frame_usage(dump)
    if mapping_fids is not None:
        mapping_fids.append(np.array(
            [fid for fid, mappings in usage.items() for _ in mappings],
            np.int64,
        ))
    result = OwnerAccounting(page_size=dump.host.page_size)
    page = dump.host.page_size
    for mappings in usage.values():
        ordered = sorted(mappings, key=_owner_sort_key)
        owner = ordered[0]
        result.cell(owner.user, owner.category).usage_bytes += page
        for mapping in ordered[1:]:
            result.cell(mapping.user, mapping.category).shared_bytes += page
    return result


def dict_distribution_accounting(
    dump, usage: Optional[FrameUsage] = None
) -> PssAccounting:
    """PSS accounting, one frame's mapping list at a time."""
    if usage is None:
        usage = build_frame_usage(dump)
    result = PssAccounting(page_size=dump.host.page_size)
    page = dump.host.page_size
    for mappings in usage.values():
        share = page / len(mappings)
        for mapping in mappings:
            user = mapping.user
            result.pss_bytes[user] = result.pss_bytes.get(user, 0.0) + share
            result.rss_bytes[user] = result.rss_bytes.get(user, 0) + page
    return result


# ----------------------------------------------------------------------
# The dump diagnostics, one frame's mapping list at a time
# ----------------------------------------------------------------------


def dict_sharing_histogram(dump) -> Dict[int, int]:
    histogram: Counter = Counter()
    for mappings in build_frame_usage(dump).values():
        histogram[len(mappings)] += 1
    return dict(histogram)


def dict_cross_vm_sharing_matrix(dump) -> Dict[Tuple[str, str], int]:
    page = dump.host.page_size
    matrix: Dict[Tuple[str, str], int] = defaultdict(int)
    for mappings in build_frame_usage(dump).values():
        vm_names = sorted({m.user.vm_name for m in mappings})
        if len(vm_names) == 1:
            if len(mappings) > 1:
                matrix[(vm_names[0], vm_names[0])] += page
            continue
        for index, first in enumerate(vm_names):
            for second in vm_names[index + 1:]:
                matrix[(first, second)] += page
    return dict(matrix)


def dict_zero_page_census(dump) -> ZeroCensus:
    view = dict_view(dump)
    census = ZeroCensus()
    for fid, mappings in build_frame_usage(view).items():
        census.total_frames += 1
        if view.frame_tokens.get(fid) == ZERO_TOKEN:
            census.zero_frames += 1
            census.zero_mappings += len(mappings)
        elif len(mappings) > 1:
            census.shared_nonzero_frames += 1
    return census


def dict_category_sharing_summary(
    dump,
) -> Dict[MemoryCategory, Tuple[int, int]]:
    page = dump.host.page_size
    totals: Dict[MemoryCategory, int] = defaultdict(int)
    shared: Dict[MemoryCategory, int] = defaultdict(int)
    for mappings in build_frame_usage(dump).values():
        frame_shared = len(mappings) > 1
        for mapping in mappings:
            if mapping.category is None:
                continue
            totals[mapping.category] += page
            if frame_shared:
                shared[mapping.category] += page
    return {
        category: (totals[category], shared.get(category, 0))
        for category in totals
    }


def use_oracle(monkeypatch) -> None:
    """Build every later testbed with the per-page scanner and run its
    accounting through the per-frame dict aggregation."""
    from repro.core.experiments import testbed
    from repro.hypervisor import kvm

    monkeypatch.setattr(kvm, "KsmScanner", PerPageScanner)
    monkeypatch.setattr(
        testbed, "owner_oriented_accounting", dict_owner_accounting
    )


# ----------------------------------------------------------------------
# The guest write path, one page at a time
# ----------------------------------------------------------------------


def alloc_gfn_per_page(kernel, owner) -> int:
    """One guest-physical page: the free list's last entry, else the
    never-used top, else the OOM handler's reclaim."""
    if not kernel._free_gfns and kernel._next_gfn >= kernel._npages:
        if kernel._oom_handler is None or not kernel._oom_handler():
            raise OutOfGuestMemoryError(
                f"{kernel.vm.name}: guest memory exhausted "
                f"({kernel._npages} pages)"
            )
    if kernel._free_gfns:
        gfn = kernel._free_gfns.pop()
    else:
        if kernel._next_gfn >= kernel._npages:
            raise OutOfGuestMemoryError(
                f"{kernel.vm.name}: guest memory exhausted "
                f"({kernel._npages} pages)"
            )
        gfn = kernel._next_gfn
        kernel._next_gfn += 1
    kernel._owners[gfn] = kernel.record_id(owner)
    return gfn


def satori_fill_page_per_page(registry, table: PageTable, vpn, token):
    """One Satori page-cache fill: share a resident copy (splitting a
    huge block around either frame, and dropping a reused page that
    holds other content), else write the page and register its frame."""
    registry.fills += 1
    physmem = registry.physmem
    existing = registry._by_token.get(token)
    if existing is not None:
        if physmem.is_live(existing) and physmem.tokens[existing] == token:
            physmem.split_block_of(existing, "satori-share")
            physmem.mark_ksm_stable(existing)
            old = table.translate(vpn)
            if old is None:
                physmem.share_mapping(table, vpn, existing)
            elif physmem.tokens[old] == token:
                physmem.split_block_of(old, "satori-share")
                physmem.merge_into(table, vpn, existing)
            else:
                # The fill overwrites a reused page holding other content.
                physmem.unmap(table, vpn)
                physmem.share_mapping(table, vpn, existing)
            registry.immediate_shares += 1
            return existing
        del registry._by_token[token]
    fid = physmem.write_token(table, vpn, token)
    registry._by_token[token] = fid
    return fid


def write_gfn_per_page(vm, gfn: int, token: int, filebacked: bool = False):
    """One KVM guest-page write: memslot shift, compressed-pool fault,
    then a Satori fill (file-backed, Satori on) or a host store."""
    vpn = vm._host_vpn(gfn)
    store = vm.host.compression
    if store is not None and store.is_compressed(vm.page_table, vpn):
        store.access_page(vm.page_table, vpn)
    if filebacked and vm.host.satori is not None:
        satori_fill_page_per_page(vm.host.satori, vm.page_table, vpn, token)
    else:
        vm.host.physmem.write_token(vm.page_table, vpn, token)


def write_pages_per_page(process, vma, pages, tokens) -> None:
    """``process.write_pages``, one page at a time."""
    kernel = process.kernel
    for page, token in zip(list(pages), list(tokens)):
        process._check_alive()
        if vma.is_file_backed:
            raise ValueError(f"VMA {vma.tag!r} is a read-only file mapping")
        vpn = vma.vpn_of(page)
        gfn = process.page_table.translate(vpn)
        if gfn is None:
            gfn = alloc_gfn_per_page(
                kernel,
                kernel.owner_record(
                    OwnerKind.PROCESS_ANON, process.pid, vma.tag
                ),
            )
            process.page_table.map(vpn, gfn)
        write_gfn_per_page(kernel.vm, gfn, token)


def page_gfn_per_page(cache, backing, index: int) -> int:
    """``PageCache.page_gfn``, filling a miss with one page fault."""
    key = (backing.file_id, index)
    gfn = cache._pages.get(key)
    if gfn is None:
        kernel = cache._kernel
        gfn = alloc_gfn_per_page(
            kernel,
            kernel.owner_record(OwnerKind.PAGE_CACHE, tag=backing.file_id),
        )
        write_gfn_per_page(
            kernel.vm, gfn, backing.page_token(index), filebacked=True
        )
        cache._pages[key] = gfn
    return gfn


def fault_file_pages_per_page(process, vma, start_page=0, count=None) -> None:
    """``process.fault_file_pages``, one page at a time."""
    process._check_alive()
    if count is None:
        count = vma.npages - start_page
    cache = process.kernel.page_cache
    for index in range(start_page, start_page + count):
        vpn = vma.vpn_of(index)
        if process.page_table.is_mapped(vpn):
            continue
        file_index = vma.file_offset_pages + index
        gfn = page_gfn_per_page(cache, vma.backing, file_index)
        process.page_table.map(vpn, gfn)
        key = (vma.backing.file_id, file_index)
        cache._mapcount[key] = cache._mapcount.get(key, 0) + 1


def page_tokens_per_page(chunks, page_size: int, base_offset: int = 0):
    """Page tokens of ``chunks`` (:class:`repro.mem.content.Chunk`) laid
    out from ``base_offset``: per page, the BLAKE2b digest of its
    non-zero slices ``(content id, offset in chunk, length, offset in
    page)`` in address order, or ``ZERO_TOKEN`` when it has none."""
    total = sum(chunk.size for chunk in chunks)
    if total == 0:
        return []
    page_count = -(-(base_offset + total) // page_size)
    tokens = []
    chunk_index = 0
    chunk_start = base_offset  # absolute address of the current chunk
    for page in range(page_count):
        page_begin = page * page_size
        page_end = page_begin + page_size
        parts = []
        while chunk_index < len(chunks):
            chunk = chunks[chunk_index]
            chunk_end = chunk_start + chunk.size
            if chunk_end <= page_begin:
                chunk_index += 1
                chunk_start = chunk_end
                continue
            if chunk_start >= page_end:
                break
            slice_begin = max(chunk_start, page_begin)
            slice_end = min(chunk_end, page_end)
            if chunk.content_id != ZERO_CONTENT:
                parts.extend((
                    chunk.content_id,
                    slice_begin - chunk_start,
                    slice_end - slice_begin,
                    slice_begin - page_begin,
                ))
            if chunk_end > page_end:
                break  # the chunk continues on the next page
            chunk_index += 1
            chunk_start = chunk_end
        tokens.append(stable_hash64("page", *parts) if parts else ZERO_TOKEN)
    return tokens
