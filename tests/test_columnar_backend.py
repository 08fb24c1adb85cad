"""Unit tests for the columnar kernels (:mod:`repro.core.columnar.backend`).

The interval/exact/owner kernels are the load-bearing pieces of the
vectorized three-layer translation; the edge cases here (overlaps,
misses, empty inputs) are exactly the ones damaged dumps produce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columnar import backend
from repro.core.columnar.backend import (
    MISS,
    merge_intervals,
    point_in_intervals,
)


@pytest.fixture(params=["columnar-numpy"])
def kernels():
    """The kernel module; its single param keeps the suite's test ids."""
    return backend


class TestColumns:
    def test_roundtrip(self, kernels):
        vec = kernels.column([3, 1, 2])
        assert vec.dtype == np.int64
        assert vec.tolist() == [3, 1, 2]
        assert kernels.column(vec) is vec

    def test_column_from_generator_with_count(self, kernels):
        vec = kernels.column((i * i for i in range(4)), count=4)
        assert vec.tolist() == [0, 1, 4, 9]

    def test_unique_setdiff_unclaimed(self, kernels):
        unclaimed = kernels.unclaimed_in_range(
            6, [kernels.column([1, 2]), kernels.column([4, 4, 9])]
        )
        assert unclaimed.tolist() == [0, 3, 5]

    def test_select(self, kernels):
        lookup = kernels.column([100, 200, 300])
        ids = kernels.column([2, 0, MISS])
        assert kernels.select(lookup, ids, -5).tolist() == [300, 100, -5]
        empty = np.empty(0, dtype=np.int64)
        assert kernels.select(lookup, empty, -5).tolist() == []


class TestIntervalLookup:
    def build(self, kernels, triples):
        starts = [t[0] for t in triples]
        ends = [t[1] for t in triples]
        payloads = [t[2] for t in triples]
        return kernels.interval_build(starts, ends, payloads)

    def lookup(self, kernels, table, queries):
        return kernels.interval_lookup(
            table, kernels.column(queries)
        ).tolist()

    def test_adjacent(self, kernels):
        table = self.build(kernels, [(10, 15, 1), (15, 20, 2)])
        assert not table.overlapping
        assert self.lookup(kernels, table, [9, 10, 14, 15, 19, 20]) == [
            MISS, 1, 1, 2, 2, MISS,
        ]

    def test_gap(self, kernels):
        table = self.build(kernels, [(0, 5, 1), (50, 55, 2)])
        assert self.lookup(kernels, table, [25, 4, 50]) == [MISS, 1, 2]

    def test_overlap_latest_start_wins(self, kernels):
        table = self.build(kernels, [(10, 20, 1), (15, 25, 2)])
        assert table.overlapping
        assert self.lookup(kernels, table, [12, 15, 19, 22, 25]) == [
            1, 2, 2, 2, MISS,
        ]

    def test_nested_interval_backward_walk(self, kernels):
        # A fully nested interval: queries past the inner end must walk
        # back to the outer one — the damaged-dump slow path.
        table = self.build(kernels, [(0, 100, 1), (40, 50, 2)])
        assert self.lookup(kernels, table, [39, 45, 50, 99, 100]) == [
            1, 2, 1, 1, MISS,
        ]

    def test_empty_table(self, kernels):
        table = self.build(kernels, [])
        assert self.lookup(kernels, table, [0, 7]) == [MISS, MISS]
        assert self.lookup(kernels, table, []) == []


class TestMembershipAndExact:
    def test_membership(self, kernels):
        merged = kernels.membership_build([(0, 5), (10, 15)])
        mask = kernels.membership(
            merged, kernels.column([0, 4, 5, 9, 10, 14, 15])
        )
        assert np.arange(7)[mask].tolist() == [0, 1, 4, 5]

    def test_membership_empty(self, kernels):
        merged = kernels.membership_build([])
        mask = kernels.membership(merged, kernels.column([1, 2]))
        assert not mask.any()

    def test_exact_lookup(self, kernels):
        table = kernels.exact_build([5, 1, 9], [50, 10, 90])
        got = kernels.exact_lookup(
            table, kernels.column([1, 2, 9, 5, 100])
        ).tolist()
        assert got == [10, MISS, 90, 50, MISS]

    def test_exact_empty(self, kernels):
        table = kernels.exact_build([], [])
        assert kernels.exact_lookup(
            table, kernels.column([3])
        ).tolist() == [MISS]


class TestOwnerReduce:
    def columns(self, kernels, rows):
        cols = list(zip(*rows)) if rows else [[]] * 6
        return tuple(kernels.column(list(col)) for col in cols)

    def test_winner_per_fid_and_shared_counts(self, kernels):
        # rows: (fid, kind, pid, vmidx, rank, cell)
        rows = [
            (7, 1, 30, 0, 2, 11),  # fid 7: loses on kind
            (7, 0, 40, 0, 9, 12),  # fid 7: wins (lowest kind)
            (8, 0, 40, 0, 9, 12),  # fid 8: sole mapper, wins
            (7, 1, 30, 0, 1, 13),  # fid 7: loses
        ]
        survivors, shared = kernels.owner_reduce(
            self.columns(kernels, rows)
        )
        fid, kind, pid, vmidx, rank, cell = (
            col.tolist() for col in survivors
        )
        assert fid == [7, 8]
        assert cell == [12, 12]
        assert shared == {11: 1, 13: 1}

    def test_tie_break_order(self, kernels):
        # Same fid+kind: lower pid wins; same pid: lower vmidx, then
        # lower rank (lexicographically smaller tag).
        rows = [
            (1, 0, 20, 0, 5, 2),
            (1, 0, 10, 1, 9, 3),  # wins: lower pid beats lower vmidx
            (1, 0, 10, 2, 1, 4),
        ]
        survivors, shared = kernels.owner_reduce(
            self.columns(kernels, rows)
        )
        assert survivors[5].tolist() == [3]
        assert shared == {2: 1, 4: 1}

    def test_empty(self, kernels):
        survivors, shared = kernels.owner_reduce(
            self.columns(kernels, [])
        )
        assert shared == {}
        assert all(col.shape[0] == 0 for col in survivors)


class TestGroupBys:
    def test_group_sizes(self, kernels):
        fid = kernels.column([5, 3, 5, 5, 3])
        order, sizes = kernels.group_sizes(fid)
        assert fid[order].tolist() == [3, 3, 5, 5, 5]
        assert sizes.tolist() == [2, 2, 3, 3, 3]


class TestPureHelpers:
    def test_merge_intervals(self):
        assert merge_intervals([(5, 10), (0, 3), (9, 12), (20, 20)]) == [
            (0, 3), (5, 12),
        ]

    def test_point_in_intervals(self):
        cover = merge_intervals([(0, 3), (5, 12)])
        hits = [p for p in range(14) if point_in_intervals(cover, p)]
        assert hits == [0, 1, 2, 5, 6, 7, 8, 9, 10, 11]
        assert not point_in_intervals([], 0)
