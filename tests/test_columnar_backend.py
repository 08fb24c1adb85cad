"""Unit tests for the columnar backend kernels.

Every op is exercised on both implementations (numpy and the stdlib
``array`` fallback) through one parametrized fixture, so the two
backends can never drift apart silently.  The interval/exact/owner
kernels are the load-bearing pieces of the vectorized three-layer
translation; the edge cases here (overlaps, misses, empty inputs) are
exactly the ones damaged dumps produce.
"""

from __future__ import annotations

import pytest

from repro.core.columnar.backend import (
    BACKEND_DICT,
    BACKEND_NUMPY,
    BACKEND_STDLIB,
    ENV_BACKEND,
    ENV_NO_NUMPY,
    MISS,
    NumpyOps,
    StdlibOps,
    available_backends,
    merge_intervals,
    numpy_available,
    ops_for,
    point_in_intervals,
    resolve_backend,
)

BACKENDS = [BACKEND_STDLIB] + (
    [BACKEND_NUMPY] if numpy_available() else []
)


@pytest.fixture(params=BACKENDS)
def ops(request):
    return ops_for(request.param)


class TestColumns:
    def test_roundtrip(self, ops):
        vec = ops.column([3, 1, 2])
        assert ops.tolist(vec) == [3, 1, 2]
        assert ops.length(vec) == 3

    def test_empty_and_arange(self, ops):
        assert ops.tolist(ops.empty()) == []
        assert ops.length(ops.empty()) == 0
        assert ops.tolist(ops.arange(4)) == [0, 1, 2, 3]

    def test_concat_take_repeat(self, ops):
        a = ops.column([1, 2])
        b = ops.column([3])
        assert ops.tolist(ops.concat([a, ops.empty(), b])) == [1, 2, 3]
        assert ops.tolist(ops.concat([])) == []
        vec = ops.column([10, 20, 30])
        assert ops.tolist(ops.take(vec, ops.column([2, 0]))) == [30, 10]
        assert ops.tolist(ops.repeat_value(7, 3)) == [7, 7, 7]

    def test_column_from_generator_with_count(self, ops):
        vec = ops.column((i * i for i in range(4)), count=4)
        assert ops.tolist(vec) == [0, 1, 4, 9]

    def test_arithmetic_and_masks(self, ops):
        vec = ops.column([1, MISS, 3])
        assert ops.tolist(ops.add_scalar(ops.column([1, 2]), 10)) == [
            11, 12,
        ]
        assert ops.tolist(
            ops.add(ops.column([1, 2]), ops.column([10, 20]))
        ) == [11, 22]
        assert ops.tolist(ops.replace_miss(vec, -1)) == [1, -1, 3]
        mask = ops.mask_ne(vec, MISS)
        assert ops.tolist(ops.compress(vec, mask)) == [1, 3]
        assert ops.tolist(ops.compress(vec, ops.mask_not(mask))) == [MISS]
        assert ops.any_mask(mask)
        assert not ops.any_mask(ops.mask_ne(ops.empty(), 0))

    def test_unique_setdiff_unclaimed(self, ops):
        assert ops.tolist(ops.unique(ops.column([3, 1, 3, 2, 1]))) == [
            1, 2, 3,
        ]
        universe = ops.column([0, 1, 2, 3, 4])
        assert ops.tolist(
            ops.setdiff_sorted(universe, ops.column([1, 3]))
        ) == [0, 2, 4]
        unclaimed = ops.unclaimed_in_range(
            6, [ops.column([1, 2]), ops.column([4, 4, 9])]
        )
        assert ops.tolist(unclaimed) == [0, 3, 5]

    def test_select(self, ops):
        lookup = ops.column([100, 200, 300])
        ids = ops.column([2, 0, MISS])
        assert ops.tolist(ops.select(lookup, ids, -5)) == [300, 100, -5]
        assert ops.tolist(ops.select(lookup, ops.empty(), -5)) == []


class TestIntervalLookup:
    def build(self, ops, triples):
        starts = [t[0] for t in triples]
        ends = [t[1] for t in triples]
        payloads = [t[2] for t in triples]
        return ops.interval_build(starts, ends, payloads)

    def lookup(self, ops, table, queries):
        return ops.tolist(ops.interval_lookup(table, ops.column(queries)))

    def test_adjacent(self, ops):
        table = self.build(ops, [(10, 15, 1), (15, 20, 2)])
        assert not table.overlapping
        assert self.lookup(ops, table, [9, 10, 14, 15, 19, 20]) == [
            MISS, 1, 1, 2, 2, MISS,
        ]

    def test_gap(self, ops):
        table = self.build(ops, [(0, 5, 1), (50, 55, 2)])
        assert self.lookup(ops, table, [25, 4, 50]) == [MISS, 1, 2]

    def test_overlap_latest_start_wins(self, ops):
        table = self.build(ops, [(10, 20, 1), (15, 25, 2)])
        assert table.overlapping
        assert self.lookup(ops, table, [12, 15, 19, 22, 25]) == [
            1, 2, 2, 2, MISS,
        ]

    def test_nested_interval_backward_walk(self, ops):
        # A fully nested interval: queries past the inner end must walk
        # back to the outer one — the damaged-dump slow path.
        table = self.build(ops, [(0, 100, 1), (40, 50, 2)])
        assert self.lookup(ops, table, [39, 45, 50, 99, 100]) == [
            1, 2, 1, 1, MISS,
        ]

    def test_empty_table(self, ops):
        table = self.build(ops, [])
        assert self.lookup(ops, table, [0, 7]) == [MISS, MISS]
        assert self.lookup(ops, table, []) == []


class TestMembershipAndExact:
    def test_membership(self, ops):
        merged = ops.membership_build([(0, 5), (10, 15)])
        mask = ops.membership(merged, ops.column([0, 4, 5, 9, 10, 14, 15]))
        got = ops.tolist(ops.compress(ops.arange(7), mask))
        assert got == [0, 1, 4, 5]

    def test_membership_empty(self, ops):
        merged = ops.membership_build([])
        mask = ops.membership(merged, ops.column([1, 2]))
        assert not ops.any_mask(mask)

    def test_exact_lookup(self, ops):
        table = ops.exact_build([5, 1, 9], [50, 10, 90])
        got = ops.tolist(
            ops.exact_lookup(table, ops.column([1, 2, 9, 5, 100]))
        )
        assert got == [10, MISS, 90, 50, MISS]

    def test_exact_empty(self, ops):
        table = ops.exact_build([], [])
        assert ops.tolist(
            ops.exact_lookup(table, ops.column([3]))
        ) == [MISS]


class TestOwnerReduce:
    def columns(self, ops, rows):
        cols = list(zip(*rows)) if rows else [[]] * 6
        return tuple(ops.column(list(col)) for col in cols)

    def test_winner_per_fid_and_shared_counts(self, ops):
        # rows: (fid, kind, pid, vmidx, rank, cell)
        rows = [
            (7, 1, 30, 0, 2, 11),  # fid 7: loses on kind
            (7, 0, 40, 0, 9, 12),  # fid 7: wins (lowest kind)
            (8, 0, 40, 0, 9, 12),  # fid 8: sole mapper, wins
            (7, 1, 30, 0, 1, 13),  # fid 7: loses
        ]
        survivors, shared = ops.owner_reduce(self.columns(ops, rows))
        fid, kind, pid, vmidx, rank, cell = (
            ops.tolist(col) for col in survivors
        )
        assert fid == [7, 8]
        assert cell == [12, 12]
        assert shared == {11: 1, 13: 1}

    def test_tie_break_order(self, ops):
        # Same fid+kind: lower pid wins; same pid: lower vmidx, then
        # lower rank (lexicographically smaller tag).
        rows = [
            (1, 0, 20, 0, 5, 2),
            (1, 0, 10, 1, 9, 3),  # wins: lower pid beats lower vmidx
            (1, 0, 10, 2, 1, 4),
        ]
        survivors, shared = ops.owner_reduce(self.columns(ops, rows))
        assert ops.tolist(survivors[5]) == [3]
        assert shared == {2: 1, 4: 1}

    def test_empty(self, ops):
        survivors, shared = ops.owner_reduce(self.columns(ops, []))
        assert shared == {}
        assert all(ops.length(col) == 0 for col in survivors)


class TestGroupBys:
    def test_group_sizes(self, ops):
        fid = ops.column([5, 3, 5, 5, 3])
        order, sizes = ops.group_sizes(fid)
        ordered = ops.tolist(ops.take(fid, order))
        assert ordered == [3, 3, 5, 5, 5]
        assert ops.tolist(sizes) == [2, 2, 3, 3, 3]

    def test_count_and_weighted_sum_by(self, ops):
        ids = ops.column([0, 2, 2, 0, 2])
        assert ops.count_by(ids, 4) == [2, 0, 3, 0]
        weights = ops.reciprocal(ops.column([1, 2, 2, 1, 4]))
        sums = ops.weighted_sum_by(ids, weights, 4)
        assert sums[0] == pytest.approx(2.0)
        assert sums[2] == pytest.approx(0.5 + 0.5 + 0.25)
        assert sums[1] == sums[3] == 0.0


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


class TestBackendSelection:
    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend(None) == resolve_backend("columnar")
        assert resolve_backend("dict") == BACKEND_DICT

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "columnar-stdlib")
        assert resolve_backend(None) == BACKEND_STDLIB

    def test_columnar_auto_selects(self, monkeypatch):
        monkeypatch.delenv(ENV_NO_NUMPY, raising=False)
        expected = BACKEND_NUMPY if numpy_available() else BACKEND_STDLIB
        assert resolve_backend("columnar") == expected
        monkeypatch.setenv(ENV_NO_NUMPY, "1")
        assert resolve_backend("columnar") == BACKEND_STDLIB

    def test_numpy_pinned_without_numpy_fails(self, monkeypatch):
        monkeypatch.setenv(ENV_NO_NUMPY, "1")
        with pytest.raises(ValueError):
            resolve_backend("columnar-numpy")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("pandas")

    def test_ops_for_dict_rejected(self):
        with pytest.raises(ValueError):
            ops_for(BACKEND_DICT)

    def test_available_backends_order(self):
        names = available_backends()
        assert names[0] == BACKEND_DICT
        assert names[-1] == BACKEND_STDLIB

    def test_ops_classes(self):
        assert StdlibOps().name == BACKEND_STDLIB
        if numpy_available():
            assert NumpyOps().name == BACKEND_NUMPY
