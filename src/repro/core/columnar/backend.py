"""Array backends for the columnar dump pipeline.

Two interchangeable implementations of the same small vector algebra:

* :class:`NumpyOps` — int64 ``numpy`` arrays with vectorized
  ``searchsorted``/``lexsort``/``bincount`` kernels (the fast path);
* :class:`StdlibOps` — ``array('q')`` columns driven by ``bisect`` and
  ``list.sort``, so the columnar pipeline runs — bit-identically — on a
  bare CPython install (the repository keeps its runtime dependency set
  empty; numpy is an accelerator, never a requirement).

Both expose exactly the operations the three-layer translation walk and
the group-by accounting need:

* ``column``/``take``/``concat`` — flat int64 columns;
* :class:`IntervalTable` + ``interval_lookup`` — "latest-start
  containing interval wins" resolution (the deterministic overlap rule
  :meth:`repro.core.dump.GuestDump.translate_gfn` defines);
* :class:`MergedIntervals` + ``membership`` — point-in-any-interval
  tests (the memslot-coverage check of the QEMU-overhead pass);
* :class:`ExactTable` + ``exact_lookup`` — sorted-merge equi-joins
  (page-table lookups);
* ``owner_reduce`` / ``group_sizes`` — the group-by-fid kernels behind
  owner-oriented and PSS accounting.

Backend selection lives in :func:`resolve_backend`: ``columnar`` (the
default, :data:`repro.config.DEFAULT_BACKEND`) picks numpy when
importable (and not vetoed by ``REPRO_NO_NUMPY=1``), the explicit
``columnar-numpy`` / ``columnar-stdlib`` names pin one implementation,
and the ``dict`` backend name selects the per-page pipeline, kept as an
opt-in reference.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_BACKEND

__all__ = [
    "BACKEND_DICT",
    "BACKEND_NUMPY",
    "BACKEND_STDLIB",
    "ENV_BACKEND",
    "ENV_NO_NUMPY",
    "ExactTable",
    "IntervalTable",
    "MISS",
    "MergedIntervals",
    "NumpyOps",
    "StdlibOps",
    "available_backends",
    "merge_intervals",
    "numpy_available",
    "ops_for",
    "point_in_intervals",
    "resolve_backend",
]

#: Environment variable selecting the accounting backend.
ENV_BACKEND = "REPRO_BACKEND"

#: Set to ``1`` to pretend numpy is not importable (CI runs the test
#: matrix once with numpy installed and once without; this knob lets a
#: numpy-present machine exercise the absent leg).
ENV_NO_NUMPY = "REPRO_NO_NUMPY"

#: Canonical backend names (the values stored in cache fingerprints).
BACKEND_DICT = "dict"
BACKEND_NUMPY = "columnar-numpy"
BACKEND_STDLIB = "columnar-stdlib"

#: Sentinel for "no result" in lookup columns.  All real payloads in the
#: pipeline (frame ids, host vpns, vma/tag/cell indexes) stay far above
#: it, and the affine memslot deltas stay far below its magnitude.
MISS = -(1 << 62)

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def numpy_available() -> bool:
    """True when the numpy backend can actually be used right now."""
    if os.environ.get(ENV_NO_NUMPY) == "1":
        return False
    return _np is not None


def available_backends() -> Tuple[str, ...]:
    """Every backend name usable in this process, canonical order."""
    names = [BACKEND_DICT]
    if numpy_available():
        names.append(BACKEND_NUMPY)
    names.append(BACKEND_STDLIB)
    return tuple(names)


def resolve_backend(name: Optional[str] = None) -> str:
    """Canonicalize a backend selection.

    ``None`` falls back to ``$REPRO_BACKEND``; that or an empty name
    means :data:`repro.config.DEFAULT_BACKEND` (``columnar``).
    ``columnar`` means "the fastest columnar implementation available":
    numpy when importable, the stdlib fallback otherwise — so a
    numpy-less install silently degrades instead of failing.  ``dict``
    selects the per-page reference pipeline.
    """
    if name is None:
        name = os.environ.get(ENV_BACKEND, "")
    name = name.strip().lower() or DEFAULT_BACKEND
    if name == BACKEND_DICT:
        return BACKEND_DICT
    if name == "columnar":
        return BACKEND_NUMPY if numpy_available() else BACKEND_STDLIB
    if name in (BACKEND_NUMPY, "numpy"):
        if not numpy_available():
            raise ValueError(
                "backend 'columnar-numpy' requested but numpy is not "
                "available (unset REPRO_NO_NUMPY or install numpy, or "
                "use 'columnar' to auto-select the stdlib fallback)"
            )
        return BACKEND_NUMPY
    if name in (BACKEND_STDLIB, "stdlib"):
        return BACKEND_STDLIB
    raise ValueError(
        f"unknown backend {name!r}; choose one of: dict, columnar, "
        "columnar-numpy, columnar-stdlib"
    )


def ops_for(backend: str):
    """The ops object for a *columnar* canonical backend name."""
    backend = resolve_backend(backend)
    if backend == BACKEND_NUMPY:
        return NumpyOps()
    if backend == BACKEND_STDLIB:
        return StdlibOps()
    raise ValueError(
        f"backend {backend!r} is not a columnar backend (no ops object)"
    )


# ----------------------------------------------------------------------
# Shared pure-python interval helpers (also used by the dict pipeline's
# de-quadratic QEMU-overhead pass in repro.core.accounting).
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
# Lookup-table containers (backend-built, backend-queried)
# ----------------------------------------------------------------------


@dataclass
class IntervalTable:
    """Half-open intervals sorted (stably) by start, latest-start wins.

    ``starts``/``ends``/``payloads`` are backend columns; ``overlapping``
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

    bounds: object  # backend column of 2*n sorted boundaries


@dataclass
class ExactTable:
    """A sorted unique-key equi-join table (key column + value column)."""

    keys: object
    values: object


# ----------------------------------------------------------------------
# numpy backend
# ----------------------------------------------------------------------


class NumpyOps:
    """Vectorized int64 kernels (requires numpy)."""

    name = BACKEND_NUMPY
    is_numpy = True

    def __init__(self) -> None:
        if _np is None or not numpy_available():
            raise RuntimeError("numpy backend constructed without numpy")
        self.np = _np

    # -- columns --------------------------------------------------------

    def column(self, values, count: Optional[int] = None):
        np = self.np
        if isinstance(values, np.ndarray):
            return values.astype(np.int64, copy=False)
        if count is None:
            values = list(values)
            count = len(values)
        return np.fromiter(values, dtype=np.int64, count=count)

    def empty(self):
        return self.np.empty(0, dtype=self.np.int64)

    def length(self, vec) -> int:
        return int(vec.shape[0])

    def tolist(self, vec) -> List[int]:
        return vec.tolist()

    def arange(self, n: int):
        return self.np.arange(n, dtype=self.np.int64)

    def concat(self, vecs):
        vecs = [v for v in vecs if v.shape[0]]
        if not vecs:
            return self.empty()
        return self.np.concatenate(vecs)

    def take(self, vec, order):
        return vec[order]

    def repeat_value(self, value: int, count: int):
        return self.np.full(count, value, dtype=self.np.int64)

    # -- joins ----------------------------------------------------------

    def interval_build(self, starts, ends, payloads) -> IntervalTable:
        np = self.np
        starts = self.column(starts)
        ends = self.column(ends)
        payloads = self.column(payloads)
        order = np.argsort(starts, kind="stable")
        starts, ends, payloads = starts[order], ends[order], payloads[order]
        overlapping = bool(
            starts.shape[0] > 1 and np.any(ends[:-1] > starts[1:])
        )
        return IntervalTable(starts, ends, payloads, overlapping)

    def interval_lookup(self, table: IntervalTable, queries):
        """Payload of the latest-start interval containing each query
        (``MISS`` when none does)."""
        np = self.np
        n = table.starts.shape[0]
        if n == 0 or queries.shape[0] == 0:
            return self.repeat_value(MISS, queries.shape[0])
        idx = np.searchsorted(table.starts, queries, side="right") - 1
        candidate = np.maximum(idx, 0)
        contained = (
            (idx >= 0)
            & (queries >= table.starts[candidate])
            & (queries < table.ends[candidate])
        )
        out = np.where(contained, table.payloads[candidate], MISS)
        if table.overlapping:
            # Only overlapping tables (damaged dumps) can hide a hit
            # behind a non-containing later-start interval; resolve the
            # few misses with the same backward walk the dict path uses.
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

    def membership_build(self, intervals) -> MergedIntervals:
        merged = merge_intervals(intervals)
        flat: List[int] = []
        for start, end in merged:
            flat.append(start)
            flat.append(end)
        return MergedIntervals(self.column(flat, count=len(flat)))

    def membership(self, merged: MergedIntervals, queries):
        """Boolean mask: query inside any merged interval."""
        np = self.np
        if merged.bounds.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=bool)
        idx = np.searchsorted(merged.bounds, queries, side="right")
        return (idx % 2) == 1

    def exact_build(self, keys, values) -> ExactTable:
        np = self.np
        keys = self.column(keys)
        values = self.column(values)
        order = np.argsort(keys, kind="stable")
        return ExactTable(keys[order], values[order])

    def exact_lookup(self, table: ExactTable, queries):
        """Value for each exactly-matching key, ``MISS`` otherwise."""
        np = self.np
        n = table.keys.shape[0]
        if n == 0 or queries.shape[0] == 0:
            return self.repeat_value(MISS, queries.shape[0])
        idx = np.searchsorted(table.keys, queries, side="left")
        candidate = np.minimum(idx, n - 1)
        hit = table.keys[candidate] == queries
        return np.where(hit, table.values[candidate], MISS)

    # -- masks ----------------------------------------------------------

    def mask_ne(self, vec, value: int):
        return vec != value

    def mask_not(self, mask):
        return ~mask

    def compress(self, vec, mask):
        return vec[mask]

    def any_mask(self, mask) -> bool:
        return bool(mask.any())

    def unique(self, vec):
        return self.np.unique(vec)

    def setdiff_sorted(self, universe, drop_sorted):
        """Elements of sorted ``universe`` not present in sorted
        ``drop_sorted`` (both unique)."""
        np = self.np
        if drop_sorted.shape[0] == 0:
            return universe
        idx = np.searchsorted(drop_sorted, universe, side="left")
        candidate = np.minimum(idx, drop_sorted.shape[0] - 1)
        present = drop_sorted[candidate] == universe
        return universe[~present]

    def unclaimed_in_range(self, n: int, claimed_vecs):
        """All values in ``[0, n)`` absent from every claimed vec — one
        O(n) mark pass, no sort (claims outside the range are ignored,
        duplicates are free)."""
        np = self.np
        mask = np.zeros(n, dtype=bool)
        for claimed in claimed_vecs:
            if claimed.shape[0]:
                mask[claimed[(claimed >= 0) & (claimed < n)]] = True
        return np.flatnonzero(~mask).astype(np.int64, copy=False)

    def add_scalar(self, vec, value: int):
        return vec + value

    def add(self, left, right):
        return left + right

    def select(self, lookup, ids, default: int):
        """``lookup[id]`` per id, ``default`` where id is ``MISS``."""
        np = self.np
        if ids.shape[0] == 0:
            return self.empty()
        hit = ids != MISS
        candidate = np.where(hit, ids, 0)
        return np.where(hit, lookup[candidate], default)

    def replace_miss(self, vec, default: int):
        return self.np.where(vec == MISS, default, vec)

    # -- group-by kernels ----------------------------------------------

    def owner_reduce(self, columns):
        """One owner-election round over mapping rows.

        ``columns`` is ``(fid, kind, pid, vmidx, rank, cell)``.  Rows are
        ordered by the paper's ownership priority inside each fid group;
        the winner (one row per distinct fid) survives, every loser
        contributes one page to its cell's *shared* tally.  Returns
        ``(survivor_columns, shared_count_increments)`` where the second
        item maps cell id -> lost-row count.
        """
        np = self.np
        fid, kind, pid, vmidx, rank, cell = columns
        if fid.shape[0] == 0:
            return columns, {}
        order = np.lexsort((cell, rank, vmidx, pid, kind, fid))
        fid = fid[order]
        first = np.empty(fid.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(fid[1:], fid[:-1], out=first[1:])
        survivors = tuple(col[order][first] for col in columns)
        lost_cells = cell[order][~first]
        shared: dict = {}
        if lost_cells.shape[0]:
            counts = np.bincount(lost_cells)
            for cell_id in np.flatnonzero(counts).tolist():
                shared[cell_id] = int(counts[cell_id])
        return survivors, shared

    def group_sizes(self, fid):
        """Per-row group size of each row's fid (input in any order);
        returns ``(row_order, sizes_per_ordered_row)``."""
        np = self.np
        order = np.argsort(fid, kind="stable")
        ordered = fid[order]
        if ordered.shape[0] == 0:
            return order, self.empty()
        boundary = np.empty(ordered.shape[0], dtype=bool)
        boundary[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        sizes = np.diff(np.append(starts, ordered.shape[0]))
        return order, np.repeat(sizes, sizes)

    def count_by(self, ids, n: int) -> List[int]:
        return self.np.bincount(ids, minlength=n).tolist()

    def weighted_sum_by(self, ids, weights, n: int) -> List[float]:
        return self.np.bincount(
            ids, weights=weights, minlength=n
        ).tolist()

    def reciprocal(self, vec):
        return 1.0 / vec.astype(self.np.float64)


# ----------------------------------------------------------------------
# stdlib backend
# ----------------------------------------------------------------------


class StdlibOps:
    """The same kernels on ``array('q')`` columns, bisect-driven.

    Per-element work is plain Python, but the *algorithms* match the
    numpy backend (sorted joins instead of per-page dict chains), so the
    stdlib columnar path stays within a small factor of the dict
    baseline while producing bit-identical accounting.
    """

    name = BACKEND_STDLIB
    is_numpy = False

    def column(self, values, count: Optional[int] = None):
        if isinstance(values, array) and values.typecode == "q":
            return values
        return array("q", values)

    def empty(self):
        return array("q")

    def length(self, vec) -> int:
        return len(vec)

    def tolist(self, vec) -> List[int]:
        return list(vec)

    def arange(self, n: int):
        return array("q", range(n))

    def concat(self, vecs):
        out = array("q")
        for vec in vecs:
            out.extend(vec)
        return out

    def take(self, vec, order):
        return array("q", (vec[i] for i in order))

    def repeat_value(self, value: int, count: int):
        return array("q", [value]) * count

    def interval_build(self, starts, ends, payloads) -> IntervalTable:
        rows = sorted(
            zip(self.column(starts), self.column(ends),
                self.column(payloads)),
            key=lambda row: row[0],
        )
        starts_col = array("q", (row[0] for row in rows))
        ends_col = array("q", (row[1] for row in rows))
        payloads_col = array("q", (row[2] for row in rows))
        overlapping = any(
            ends_col[i] > starts_col[i + 1]
            for i in range(len(starts_col) - 1)
        )
        return IntervalTable(starts_col, ends_col, payloads_col, overlapping)

    def interval_lookup(self, table: IntervalTable, queries):
        starts, ends, payloads = table.starts, table.ends, table.payloads
        overlapping = table.overlapping
        out = array("q")
        if not starts:
            return self.repeat_value(MISS, len(queries))
        for value in queries:
            index = bisect_right(starts, value) - 1
            hit = MISS
            while index >= 0:
                if starts[index] <= value < ends[index]:
                    hit = payloads[index]
                    break
                if not overlapping:
                    break
                index -= 1
            out.append(hit)
        return out

    def membership_build(self, intervals) -> MergedIntervals:
        merged = merge_intervals(intervals)
        flat = array("q")
        for start, end in merged:
            flat.append(start)
            flat.append(end)
        return MergedIntervals(flat)

    def membership(self, merged: MergedIntervals, queries):
        bounds = merged.bounds
        if not bounds:
            return [False] * len(queries)
        return [
            (bisect_right(bounds, value) % 2) == 1 for value in queries
        ]

    def exact_build(self, keys, values) -> ExactTable:
        rows = sorted(zip(self.column(keys), self.column(values)))
        return ExactTable(
            array("q", (row[0] for row in rows)),
            array("q", (row[1] for row in rows)),
        )

    def exact_lookup(self, table: ExactTable, queries):
        keys, values = table.keys, table.values
        out = array("q")
        if not keys:
            return self.repeat_value(MISS, len(queries))
        n = len(keys)
        for value in queries:
            index = bisect_left(keys, value)
            if index < n and keys[index] == value:
                out.append(values[index])
            else:
                out.append(MISS)
        return out

    def mask_ne(self, vec, value: int):
        return [item != value for item in vec]

    def mask_not(self, mask):
        return [not bit for bit in mask]

    def compress(self, vec, mask):
        return array(
            "q", (item for item, keep in zip(vec, mask) if keep)
        )

    def any_mask(self, mask) -> bool:
        return any(mask)

    def unique(self, vec):
        return array("q", sorted(set(vec)))

    def setdiff_sorted(self, universe, drop_sorted):
        drop = set(drop_sorted)
        return array("q", (item for item in universe if item not in drop))

    def unclaimed_in_range(self, n: int, claimed_vecs):
        mask = bytearray(n)
        for claimed in claimed_vecs:
            for value in claimed:
                if 0 <= value < n:
                    mask[value] = 1
        return array(
            "q", (value for value in range(n) if not mask[value])
        )

    def add_scalar(self, vec, value: int):
        return array("q", (item + value for item in vec))

    def add(self, left, right):
        return array("q", (a + b for a, b in zip(left, right)))

    def select(self, lookup, ids, default: int):
        return array(
            "q",
            (lookup[item] if item != MISS else default for item in ids),
        )

    def replace_miss(self, vec, default: int):
        return array(
            "q", (item if item != MISS else default for item in vec)
        )

    def owner_reduce(self, columns):
        fid, kind, pid, vmidx, rank, cell = columns
        if not len(fid):
            return columns, {}
        rows = sorted(zip(fid, kind, pid, vmidx, rank, cell))
        survivors = [array("q") for _ in range(6)]
        shared: dict = {}
        previous_fid = None
        for row in rows:
            if row[0] != previous_fid:
                previous_fid = row[0]
                for col, value in zip(survivors, row):
                    col.append(value)
            else:
                shared[row[5]] = shared.get(row[5], 0) + 1
        return tuple(survivors), shared

    def group_sizes(self, fid):
        order = sorted(range(len(fid)), key=fid.__getitem__)
        sizes = array("q")
        run_start = 0
        for position in range(1, len(order) + 1):
            if (
                position == len(order)
                or fid[order[position]] != fid[order[run_start]]
            ):
                run = position - run_start
                sizes.extend([run] * run)
                run_start = position
        return array("q", order), sizes

    def count_by(self, ids, n: int) -> List[int]:
        counts = [0] * n
        for item in ids:
            counts[item] += 1
        return counts

    def weighted_sum_by(self, ids, weights, n: int) -> List[float]:
        sums = [0.0] * n
        for item, weight in zip(ids, weights):
            sums[item] += weight
        return sums

    def reciprocal(self, vec):
        return [1.0 / item for item in vec]
