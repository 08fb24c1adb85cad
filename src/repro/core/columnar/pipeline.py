"""The columnar dump→accounting pipeline.

Runs the three passes of :func:`repro.core.accounting.build_frame_usage`
(guest processes, guest kernel, QEMU overhead) and the paper's ownership
rule behind :func:`repro.core.accounting.owner_oriented_accounting` /
:func:`~repro.core.accounting.distribution_oriented_accounting`, expressed
as column algebra over the lowered tables of
:mod:`repro.core.columnar.lower`:

* the three-layer walk is one interval ``searchsorted`` (memslots) plus
  an affine add plus one exact-join ``searchsorted`` (QEMU host page
  table) over whole page-table columns;
* frame attribution never materializes per-page
  :class:`~repro.core.accounting.Mapping` objects — every pass emits a
  *chunk* of six parallel int columns ``(fid, kind, pid, vm_index,
  tag_rank, cell)``, the ownership sort key flattened to integers;
* owner election is a lexsort + first-of-group reduction per fid
  (:meth:`owner_reduce`), PSS a group-size count — both group-by-fid
  aggregations.

:class:`StreamingOwnerAccumulator` folds chunks in with geometric
compaction: the live state is one candidate row per distinct frame plus
integer shared tallies, so arbitrarily large dumps stream through in
bounded memory (ownership ``min`` is associative, and a mapping row is
counted as shared exactly once — at the reduction where it loses).
Batch mode is the same accumulator with compaction deferred to
:meth:`finish`, which keeps the two modes trivially bit-identical.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.core.accounting import (
    OwnerAccounting,
    PssAccounting,
    UserKind,
)
from repro.core.dump import SystemDump

from .backend import MISS, NumpyOps
from .lower import (
    GuestTables,
    ProcessTables,
    Registry,
    build_registry,
    lower_guest,
    lower_process,
)

__all__ = [
    "StreamingOwnerAccumulator",
    "distribution_accounting_columnar",
    "iter_mapping_chunks",
    "owner_accounting_columnar",
    "resolve_process_columns",
    "stream_owner_accounting",
]

#: The ``pid`` field of the ownership sort key for pid-less users
#: (matches ``_owner_sort_key``'s ``1 << 30`` sentinel).
_NO_PID = 1 << 30

#: Default chunk-row threshold before the streaming accumulator folds
#: pending chunks into its per-frame state.
DEFAULT_COMPACT_ROWS = 1 << 18

#: A mapping chunk: (fid, kind, pid, vm_index, tag_rank, cell) columns.
Chunk = Tuple[object, object, object, object, object, object]


def resolve_process_columns(
    ops, guest_tables: GuestTables, process_tables: ProcessTables
):
    """Vectorized three-layer walk for one guest process.

    Returns ``(vpns, gfns, host_vpns, fids)`` columns restricted to the
    *backed* pages — exactly the rows
    :func:`repro.core.translate.iter_process_frames` would yield.
    """
    deltas = ops.interval_lookup(
        guest_tables.slot_table, process_tables.gfns
    )
    in_slot = ops.mask_ne(deltas, MISS)
    vpns = ops.compress(process_tables.vpns, in_slot)
    gfns = ops.compress(process_tables.gfns, in_slot)
    host_vpns = ops.add(gfns, ops.compress(deltas, in_slot))
    fids = ops.exact_lookup(guest_tables.host_table, host_vpns)
    backed = ops.mask_ne(fids, MISS)
    return (
        ops.compress(vpns, backed),
        ops.compress(gfns, backed),
        ops.compress(host_vpns, backed),
        ops.compress(fids, backed),
    )


def _constant_columns(ops, fids, kind: int, pid: int, vm_index: int):
    count = ops.length(fids)
    return (
        ops.repeat_value(kind, count),
        ops.repeat_value(pid if pid >= 0 else _NO_PID, count),
        ops.repeat_value(vm_index, count),
    )


def iter_mapping_chunks(
    ops, dump: SystemDump, registry: Registry
) -> Iterator[Chunk]:
    """Yield mapping chunks per (process | guest kernel | QEMU) pass.

    Chunk rows correspond one-to-one with the
    :class:`~repro.core.accounting.Mapping` objects
    :func:`~repro.core.accounting.build_frame_usage` appends, with the
    ownership sort key pre-flattened to integers.
    """
    for guest in dump.guests:
        tables = lower_guest(ops, dump, guest, registry)
        claimed_chunks = []
        for process in guest.processes:
            lowered = lower_process(ops, guest, process, registry)
            vpns, gfns, _host_vpns, fids = resolve_process_columns(
                ops, tables, lowered
            )
            claimed_chunks.append(gfns)
            if not ops.length(fids):
                continue
            vma_ids = ops.interval_lookup(lowered.vma_table, vpns)
            ranks = ops.select(
                lowered.vma_ranks, vma_ids, lowered.anon_rank
            )
            cells = ops.select(
                lowered.vma_cells, vma_ids, lowered.anon_cell
            )
            kind, pid, vm_index = _constant_columns(
                ops, fids, int(lowered.user.kind), process.pid,
                guest.vm_index,
            )
            yield fids, kind, pid, vm_index, ranks, cells

        # Guest-kernel pass: backed gfns no process claimed.
        unclaimed = ops.unclaimed_in_range(
            guest.guest_npages, claimed_chunks
        )
        deltas = ops.interval_lookup(tables.slot_table, unclaimed)
        in_slot = ops.mask_ne(deltas, MISS)
        gfns = ops.compress(unclaimed, in_slot)
        host_vpns = ops.add(gfns, ops.compress(deltas, in_slot))
        fids = ops.exact_lookup(tables.host_table, host_vpns)
        backed = ops.mask_ne(fids, MISS)
        gfns = ops.compress(gfns, backed)
        fids = ops.compress(fids, backed)
        if ops.length(fids):
            ranks = ops.replace_miss(
                ops.exact_lookup(tables.owner_table, gfns),
                tables.unknown_rank,
            )
            kind, pid, vm_index = _constant_columns(
                ops, fids, int(UserKind.KERNEL), -1, guest.vm_index
            )
            cells = ops.repeat_value(
                tables.kernel_cell, ops.length(fids)
            )
            yield fids, kind, pid, vm_index, ranks, cells

        # QEMU-overhead pass: host pages outside every memslot.
        outside = ops.mask_not(
            ops.membership(
                tables.slot_host_cover, tables.host_table.keys
            )
        )
        fids = ops.compress(tables.host_table.values, outside)
        if ops.length(fids):
            kind, pid, vm_index = _constant_columns(
                ops, fids, int(UserKind.VM_SELF), -1, guest.vm_index
            )
            count = ops.length(fids)
            yield (
                fids, kind, pid, vm_index,
                ops.repeat_value(tables.qemu_rank, count),
                ops.repeat_value(tables.vm_self_cell, count),
            )


class StreamingOwnerAccumulator:
    """Fold mapping chunks into owner-oriented tallies, bounded memory.

    State between compactions: one surviving candidate row per distinct
    frame id (the provisional owner) plus an integer shared-count per
    cell.  ``compact_rows=None`` defers all reduction to :meth:`finish`
    (batch mode); any finite value compacts geometrically — whenever
    pending rows exceed ``max(compact_rows, len(state))`` — so total
    work stays O(n log n) while resident columns stay O(distinct fids).
    """

    def __init__(
        self,
        ops,
        registry: Registry,
        page_size: int,
        compact_rows: Optional[int] = None,
    ) -> None:
        self._ops = ops
        self._registry = registry
        self._page_size = page_size
        self._compact_rows = compact_rows
        self._state: Optional[Chunk] = None
        self._pending = []
        self._pending_rows = 0
        self._shared: dict = {}

    def add_chunk(self, chunk: Chunk) -> None:
        rows = self._ops.length(chunk[0])
        if not rows:
            return
        self._pending.append(chunk)
        self._pending_rows += rows
        if self._compact_rows is None:
            return
        state_rows = (
            self._ops.length(self._state[0]) if self._state else 0
        )
        if self._pending_rows >= max(self._compact_rows, state_rows):
            self._compact()

    def _compact(self) -> None:
        if not self._pending:
            return
        pieces = list(self._pending)
        if self._state is not None:
            pieces.append(self._state)
        merged = tuple(
            self._ops.concat([piece[i] for piece in pieces])
            for i in range(6)
        )
        survivors, shared = self._ops.owner_reduce(merged)
        for cell_id, count in shared.items():
            self._shared[cell_id] = self._shared.get(cell_id, 0) + count
        self._state = survivors
        self._pending = []
        self._pending_rows = 0

    def finish(self) -> OwnerAccounting:
        self._compact()
        result = OwnerAccounting(page_size=self._page_size)
        cells = self._registry.cells
        usage_counts = (
            self._ops.count_by(self._state[5], len(cells))
            if self._state is not None else [0] * len(cells)
        )
        page = self._page_size
        for cell_id, (user, category) in enumerate(cells):
            usage = usage_counts[cell_id]
            shared = self._shared.get(cell_id, 0)
            if usage or shared:
                cell = result.cell(user, category)
                cell.usage_bytes = usage * page
                cell.shared_bytes = shared * page
        return result


def owner_accounting_columnar(dump: SystemDump) -> OwnerAccounting:
    """Owner-oriented accounting on the columnar pipeline (batch)."""
    ops = NumpyOps()
    registry = build_registry(dump)
    accumulator = StreamingOwnerAccumulator(
        ops, registry, dump.host.page_size
    )
    for chunk in iter_mapping_chunks(ops, dump, registry):
        accumulator.add_chunk(chunk)
    return accumulator.finish()


def stream_owner_accounting(
    dump: SystemDump, compact_rows: int = DEFAULT_COMPACT_ROWS
) -> OwnerAccounting:
    """Owner-oriented accounting in streaming mode.

    Identical result to :func:`owner_accounting_columnar`; per-process
    columns fold into the accumulator as they are produced, so peak
    resident rows stay around ``max(compact_rows, distinct frames)``
    instead of the full mapping count.
    """
    ops = NumpyOps()
    registry = build_registry(dump)
    accumulator = StreamingOwnerAccumulator(
        ops, registry, dump.host.page_size, compact_rows=compact_rows
    )
    for chunk in iter_mapping_chunks(ops, dump, registry):
        accumulator.add_chunk(chunk)
    return accumulator.finish()


def distribution_accounting_columnar(dump: SystemDump) -> PssAccounting:
    """PSS accounting as a group-by-fid size count.

    Integer ``rss`` tallies are exact; ``pss`` floats may differ from a
    per-frame summation by summation order (within a few ULP).
    """
    ops = NumpyOps()
    registry = build_registry(dump)
    chunks = list(iter_mapping_chunks(ops, dump, registry))
    if chunks:
        fids = ops.concat([chunk[0] for chunk in chunks])
        cells = ops.concat([chunk[5] for chunk in chunks])
    else:
        fids = ops.empty()
        cells = ops.empty()
    user_lookup = ops.column(
        registry.cell_user, count=len(registry.cell_user)
    )
    users = ops.select(user_lookup, cells, 0)
    order, sizes = ops.group_sizes(fids)
    result = PssAccounting(page_size=dump.host.page_size)
    total_users = len(registry.users)
    if not total_users:
        return result
    rss_counts = ops.count_by(users, total_users)
    pss_weights = ops.weighted_sum_by(
        ops.take(users, order), ops.reciprocal(sizes), total_users
    )
    page = dump.host.page_size
    for user_id, user in enumerate(registry.users):
        if rss_counts[user_id]:
            result.pss_bytes[user] = pss_weights[user_id] * page
            result.rss_bytes[user] = rss_counts[user_id] * page
    return result
