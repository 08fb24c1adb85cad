"""int64 column kernels for the columnar dump pipeline.

The module holds the operations of the three-layer translation walk and
the group-by accounting that hide an algorithm, as vectorized
``searchsorted``/``lexsort``/``bincount`` kernels over int64 ``numpy``
arrays (everything else the pipeline does is a plain numpy
expression):

* :func:`column` — a flat int64 column from any int iterable;
* :func:`interval_build` + :func:`interval_lookup` — "latest-start
  containing interval wins" resolution (the deterministic overlap rule
  :meth:`repro.core.dump.GuestDump.translate_gfn` defines);
* :func:`membership_build` + :func:`membership` — point-in-any-interval
  tests (the memslot-coverage check of the QEMU-overhead pass);
* :func:`exact_build` + :func:`exact_lookup` — sorted-merge equi-joins
  (page-table lookups);
* :func:`marked`, :func:`unclaimed_in_range` and :func:`select` — mark
  passes over a value range (the guest-kernel pass's complement among
  them) and the ``MISS``-aware gather;
* :func:`owner_reduce` / :func:`group_sizes` — the group-by-fid kernels
  behind owner-oriented and PSS accounting (and the KSM scanner's token
  grouping).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ExactTable",
    "IntervalTable",
    "MISS",
    "MergedIntervals",
    "column",
    "exact_build",
    "exact_lookup",
    "group_sizes",
    "interval_build",
    "interval_lookup",
    "marked",
    "membership",
    "membership_build",
    "merge_intervals",
    "owner_reduce",
    "point_in_intervals",
    "select",
    "unclaimed_in_range",
]

#: Sentinel for "no result" in lookup columns.  All real payloads in the
#: pipeline (frame ids, host vpns, vma/tag/cell indexes) stay far above
#: it, and the affine memslot deltas stay far below its magnitude.
MISS = -(1 << 62)


# ----------------------------------------------------------------------
# Shared pure-python interval helpers (also used by the per-frame usage
# walk's QEMU-overhead pass in repro.core.accounting).
# ----------------------------------------------------------------------


def merge_intervals(
    intervals: Iterable[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Coalesce half-open ``[start, end)`` intervals into a sorted,
    disjoint cover (empty intervals are dropped)."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def point_in_intervals(
    merged: Sequence[Tuple[int, int]], point: int
) -> bool:
    """Membership in a :func:`merge_intervals` cover, one bisect."""
    index = bisect_right(merged, (point, 1 << 200)) - 1
    return index >= 0 and point < merged[index][1]


# ----------------------------------------------------------------------
# Lookup-table containers
# ----------------------------------------------------------------------


@dataclass
class IntervalTable:
    """Half-open intervals sorted (stably) by start, latest-start wins.

    ``starts``/``ends``/``payloads`` are int64 columns; ``overlapping``
    records whether any interval spills past the next start — only then
    does a lookup ever need the scalar backward walk a damaged dump's
    overlapping memslots/VMAs require.
    """

    starts: object
    ends: object
    payloads: object
    overlapping: bool


@dataclass
class MergedIntervals:
    """A disjoint interval cover flattened to ``[s0,e0,s1,e1,...]``."""

    bounds: object  # int64 column of 2*n sorted boundaries


@dataclass
class ExactTable:
    """A sorted unique-key equi-join table (key column + value column)."""

    keys: object
    values: object


# ----------------------------------------------------------------------
# The kernels
# ----------------------------------------------------------------------


def column(values, count: Optional[int] = None):
    """``values`` as an int64 column (``count`` sizes a generator)."""
    if isinstance(values, np.ndarray):
        return values.astype(np.int64, copy=False)
    if count is None:
        values = list(values)
        count = len(values)
    return np.fromiter(values, dtype=np.int64, count=count)


def interval_build(starts, ends, payloads) -> IntervalTable:
    starts = column(starts)
    ends = column(ends)
    payloads = column(payloads)
    order = np.argsort(starts, kind="stable")
    starts, ends, payloads = starts[order], ends[order], payloads[order]
    overlapping = bool(
        starts.shape[0] > 1 and np.any(ends[:-1] > starts[1:])
    )
    return IntervalTable(starts, ends, payloads, overlapping)


def interval_lookup(table: IntervalTable, queries):
    """Payload of the latest-start interval containing each query
    (``MISS`` when none does)."""
    n = table.starts.shape[0]
    if n == 0 or queries.shape[0] == 0:
        return np.full(queries.shape[0], MISS, dtype=np.int64)
    idx = np.searchsorted(table.starts, queries, side="right") - 1
    candidate = np.maximum(idx, 0)
    contained = (
        (idx >= 0)
        & (queries >= table.starts[candidate])
        & (queries < table.ends[candidate])
    )
    out = np.where(contained, table.payloads[candidate], MISS)
    if table.overlapping:
        # Only overlapping tables (damaged dumps) can hide a hit behind
        # a non-containing later-start interval; resolve the few misses
        # with the same backward walk the scalar lookups use.
        misses = np.flatnonzero(~contained & (idx >= 0))
        starts = table.starts
        ends = table.ends
        payloads = table.payloads
        for flat in misses.tolist():
            value = int(queries[flat])
            walk = int(idx[flat])
            while walk >= 0:
                if starts[walk] <= value < ends[walk]:
                    out[flat] = payloads[walk]
                    break
                walk -= 1
    return out


def membership_build(intervals) -> MergedIntervals:
    merged = merge_intervals(intervals)
    flat: List[int] = []
    for start, end in merged:
        flat.append(start)
        flat.append(end)
    return MergedIntervals(column(flat, count=len(flat)))


def membership(merged: MergedIntervals, queries):
    """Boolean mask: query inside any merged interval."""
    if merged.bounds.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=bool)
    idx = np.searchsorted(merged.bounds, queries, side="right")
    return (idx % 2) == 1


def exact_build(keys, values) -> ExactTable:
    keys = column(keys)
    values = column(values)
    order = np.argsort(keys, kind="stable")
    return ExactTable(keys[order], values[order])


def exact_lookup(table: ExactTable, queries):
    """Value for each exactly-matching key, ``MISS`` otherwise."""
    n = table.keys.shape[0]
    if n == 0 or queries.shape[0] == 0:
        return np.full(queries.shape[0], MISS, dtype=np.int64)
    idx = np.searchsorted(table.keys, queries, side="left")
    candidate = np.minimum(idx, n - 1)
    hit = table.keys[candidate] == queries
    return np.where(hit, table.values[candidate], MISS)


def marked(size: int, columns):
    """A mark pass: a ``size``-long boolean mask, True at every value of
    every column (values must lie in ``[0, size)``; no sort)."""
    mask = np.zeros(size, dtype=bool)
    for values in columns:
        mask[values] = True
    return mask


def unclaimed_in_range(n: int, claimed_vecs):
    """All values in ``[0, n)`` absent from every claimed vec — one O(n)
    mark pass, no sort (claims outside the range are ignored, duplicates
    are free)."""
    mask = marked(n, (
        claimed[(claimed >= 0) & (claimed < n)] for claimed in claimed_vecs
    ))
    return np.flatnonzero(~mask).astype(np.int64, copy=False)


def select(lookup, ids, default: int):
    """``lookup[id]`` per id, ``default`` where id is ``MISS``."""
    if ids.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    hit = ids != MISS
    candidate = np.where(hit, ids, 0)
    return np.where(hit, lookup[candidate], default)


# ----------------------------------------------------------------------
# Group-by kernels
# ----------------------------------------------------------------------


def owner_reduce(columns, keep=range(6)):
    """One owner-election round over mapping rows.

    ``columns`` is ``(fid, kind, pid, vmidx, rank, cell)``.  Rows are
    ordered by the paper's ownership priority inside each fid group; the
    winner (one row per distinct fid) survives, every loser contributes
    one page to its cell's *shared* tally.  Returns
    ``(survivor_columns, shared_count_increments)`` where the first item
    holds the winners' values of the columns ``keep`` names (all six by
    default) and the second maps cell id -> lost-row count.
    """
    fid, kind, pid, vmidx, rank, cell = columns
    if fid.shape[0] == 0:
        return tuple(columns[index] for index in keep), {}
    order = np.lexsort((cell, rank, vmidx, pid, kind, fid))
    ordered = fid[order]
    first = np.empty(fid.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    del ordered
    winners = order[first]
    survivors = tuple(columns[index][winners] for index in keep)
    lost_cells = cell[order[~first]]
    shared: dict = {}
    if lost_cells.shape[0]:
        counts = np.bincount(lost_cells)
        for cell_id in np.flatnonzero(counts).tolist():
            shared[cell_id] = int(counts[cell_id])
    return survivors, shared


def group_sizes(fid):
    """Per-row group size of each row's fid (input in any order);
    returns ``(row_order, sizes_per_ordered_row)``."""
    order = np.argsort(fid, kind="stable")
    ordered = fid[order]
    if ordered.shape[0] == 0:
        return order, np.empty(0, dtype=np.int64)
    boundary = np.empty(ordered.shape[0], dtype=bool)
    boundary[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, ordered.shape[0]))
    return order, np.repeat(sizes, sizes)
