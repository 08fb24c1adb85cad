"""The columnar dump→accounting pipeline.

Runs the three passes of the paper's frame attribution (guest
processes, guest kernel, QEMU overhead; the per-frame form is
``build_frame_usage`` in ``tests/oracle.py``) and the paper's ownership
rule behind :func:`repro.core.accounting.owner_oriented_accounting` /
:func:`~repro.core.accounting.distribution_oriented_accounting`, expressed
as column algebra over the lowered tables of
:mod:`repro.core.columnar.lower`:

* the three-layer walk is one interval ``searchsorted`` (memslots) plus
  an affine add plus one exact-join ``searchsorted`` (QEMU host page
  table) over whole page-table columns;
* frame attribution never materializes per-page mapping objects —
  every pass emits a
  *chunk* of six parallel int columns ``(fid, kind, pid, vm_index,
  tag_rank, cell)``, the ownership sort key flattened to integers;
* owner election is one lexsort + first-of-group reduction per fid
  (:func:`~repro.core.columnar.backend.owner_reduce`) over all chunks
  concatenated, PSS a group-size count — both group-by-fid
  aggregations.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.accounting import (
    OwnerAccounting,
    PssAccounting,
    UserKind,
)
from repro.core.dump import SystemDump

from .backend import (
    MISS,
    column,
    exact_lookup,
    group_sizes,
    interval_lookup,
    membership,
    owner_reduce,
    select,
    unclaimed_in_range,
)
from .lower import (
    GuestTables,
    ProcessTables,
    Registry,
    build_registry,
    lower_guest,
    lower_process,
)

__all__ = [
    "distribution_accounting_columnar",
    "iter_mapping_chunks",
    "mapping_columns",
    "owner_accounting_columnar",
    "resolve_process_columns",
]

#: The ``pid`` field of the ownership sort key for pid-less users
#: (matches ``_owner_sort_key``'s ``1 << 30`` sentinel).
_NO_PID = 1 << 30

#: A mapping chunk: (fid, kind, pid, vm_index, tag_rank, cell) columns.
Chunk = Tuple[object, object, object, object, object, object]
#: Their dtypes: fids stay int64, the rest are as narrow as their values
#: (``_NO_PID`` fits int32).
_CHUNK_DTYPES = (np.int64, np.int8, np.int32, np.int16, np.int32, np.int32)


def resolve_process_columns(
    guest_tables: GuestTables, process_tables: ProcessTables
):
    """Vectorized three-layer walk for one guest process.

    Returns ``(vpns, gfns, host_vpns, fids)`` columns restricted to the
    *backed* pages — the pages whose walk reaches a host frame.
    """
    deltas = interval_lookup(guest_tables.slot_table, process_tables.gfns)
    in_slot = deltas != MISS
    vpns = process_tables.vpns[in_slot]
    gfns = process_tables.gfns[in_slot]
    host_vpns = gfns + deltas[in_slot]
    fids = exact_lookup(guest_tables.host_table, host_vpns)
    backed = fids != MISS
    return vpns[backed], gfns[backed], host_vpns[backed], fids[backed]


def _constant_columns(count: int, kind: int, pid: int, vm_index: int):
    return (
        np.full(count, kind, dtype=np.int8),
        np.full(count, pid if pid >= 0 else _NO_PID, dtype=np.int32),
        np.full(count, vm_index, dtype=np.int16),
    )


def iter_mapping_chunks(
    dump: SystemDump, registry: Registry
) -> Iterator[Chunk]:
    """Yield mapping chunks per (process | guest kernel | QEMU) pass.

    Chunk rows correspond one-to-one with the mappings the per-frame
    walk lists (``build_frame_usage`` in ``tests/oracle.py``), with the
    ownership sort key pre-flattened to integers.
    """
    for guest in dump.guests:
        tables = lower_guest(dump, guest, registry)
        claimed_chunks = []
        for process in guest.processes:
            lowered = lower_process(guest, process, registry)
            vpns, gfns, _host_vpns, fids = resolve_process_columns(
                tables, lowered
            )
            claimed_chunks.append(gfns)
            if not fids.shape[0]:
                continue
            vma_ids = interval_lookup(lowered.vma_table, vpns)
            ranks = select(lowered.vma_ranks, vma_ids, lowered.anon_rank)
            ranks = ranks.astype(np.int32)
            cells = select(lowered.vma_cells, vma_ids, lowered.anon_cell)
            cells = cells.astype(np.int32)
            kind, pid, vm_index = _constant_columns(
                fids.shape[0], int(lowered.user.kind), process.pid,
                guest.vm_index,
            )
            yield fids, kind, pid, vm_index, ranks, cells

        # Guest-kernel pass: backed gfns no process claimed.
        unclaimed = unclaimed_in_range(guest.guest_npages, claimed_chunks)
        deltas = interval_lookup(tables.slot_table, unclaimed)
        in_slot = deltas != MISS
        gfns = unclaimed[in_slot]
        fids = exact_lookup(tables.host_table, gfns + deltas[in_slot])
        backed = fids != MISS
        gfns = gfns[backed]
        fids = fids[backed]
        count = fids.shape[0]
        if count:
            ranks = exact_lookup(tables.owner_table, gfns)
            ranks = np.where(ranks == MISS, tables.unknown_rank, ranks)
            ranks = ranks.astype(np.int32)
            kind, pid, vm_index = _constant_columns(
                count, int(UserKind.KERNEL), -1, guest.vm_index
            )
            cells = np.full(count, tables.kernel_cell, dtype=np.int32)
            yield fids, kind, pid, vm_index, ranks, cells

        # QEMU-overhead pass: host pages outside every memslot.
        outside = ~membership(
            tables.slot_host_cover, tables.host_table.keys
        )
        fids = tables.host_table.values[outside]
        count = fids.shape[0]
        if count:
            kind, pid, vm_index = _constant_columns(
                count, int(UserKind.VM_SELF), -1, guest.vm_index
            )
            yield (
                fids, kind, pid, vm_index,
                np.full(count, tables.qemu_rank, dtype=np.int32),
                np.full(count, tables.vm_self_cell, dtype=np.int32),
            )


def mapping_columns(dump: SystemDump, registry: Registry) -> Chunk:
    """Every mapping chunk of ``dump``, each column concatenated (one
    column at a time, each column's chunks dropped once it is built)."""
    pieces = [list(columns) for columns in zip(*iter_mapping_chunks(
        dump, registry
    ))]
    if not pieces:
        return tuple(np.empty(0, dtype) for dtype in _CHUNK_DTYPES)
    out = []
    for index in range(len(pieces)):
        out.append(np.concatenate(pieces[index]))
        pieces[index] = None
    return tuple(out)


def owner_accounting_columnar(
    dump: SystemDump, mapping_fids: Optional[list] = None
) -> OwnerAccounting:
    """Owner-oriented accounting: one owner election over every mapping
    row, then one count of the winners per cell.  The rows' fid column
    is appended to ``mapping_fids`` when one is given."""
    registry = build_registry(dump)
    columns = mapping_columns(dump, registry)
    if mapping_fids is not None:
        mapping_fids.append(columns[0])
    (winner_cells,), shared = owner_reduce(columns, keep=(5,))
    del columns
    cells = registry.cells
    usage_counts = np.bincount(winner_cells, minlength=len(cells)).tolist()
    result = OwnerAccounting(page_size=dump.host.page_size)
    page = dump.host.page_size
    for cell_id, (user, category) in enumerate(cells):
        usage = usage_counts[cell_id]
        shared_pages = shared.get(cell_id, 0)
        if usage or shared_pages:
            cell = result.cell(user, category)
            cell.usage_bytes = usage * page
            cell.shared_bytes = shared_pages * page
    return result


def distribution_accounting_columnar(dump: SystemDump) -> PssAccounting:
    """PSS accounting as a group-by-fid size count.

    Integer ``rss`` tallies are exact; ``pss`` floats may differ from a
    per-frame summation by summation order (within a few ULP).
    """
    registry = build_registry(dump)
    fids, _kind, _pid, _vm_index, _ranks, cells = mapping_columns(
        dump, registry
    )
    user_lookup = column(registry.cell_user, count=len(registry.cell_user))
    users = select(user_lookup, cells, 0)
    order, sizes = group_sizes(fids)
    result = PssAccounting(page_size=dump.host.page_size)
    total_users = len(registry.users)
    if not total_users:
        return result
    rss_counts = np.bincount(users, minlength=total_users).tolist()
    pss_weights = np.bincount(
        users[order], weights=1.0 / sizes.astype(np.float64),
        minlength=total_users,
    ).tolist()
    page = dump.host.page_size
    for user_id, user in enumerate(registry.users):
        if rss_counts[user_id]:
            result.pss_bytes[user] = pss_weights[user_id] * page
            result.rss_bytes[user] = rss_counts[user_id] * page
    return result
