"""The resting-candidate lookup of a FULL worklist.

:class:`repro.ksm.scanner._Worklist` finds the rows resting with a token
through sorted levels of ``(key << 32) | row`` entries that merge down
as they grow, behind a bit filter of the keys that entered a level.  At
paper scale every level and every merge is used; the scanner lockstep
suites run on universes too small to fill more than the smallest level.
Here the level bound is shrunk so that a few dozen rows exercise every
merge, and each lookup is checked against the columns it indexes:

* every row resting with one of the keys is found;
* every row found rests, and rested at some point with one of the keys
  (an entry outlives a change of the row's key until ``base`` is
  rebuilt; the scanner confirms a hit against the exact token).

After every step no resting row's key reads a clear filter bit, and
``_lookup`` sees only keys whose bits are set.  The filter sets each
key's low bits in its first half, so a key below half the filter's
bits that never rested reads a clear bit: a lookup of only such keys
searches nothing.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ksm import scanner as scanner_module
from repro.ksm.scanner import _Worklist

ROWS = 48
#: Keys the steps rest rows with; keys up to ``NEVER`` never rest, and
#: lie below half of a 48-row worklist's 256 filter bits.
KEYS = 40
NEVER = 127

#: One step: rest some rows with some keys, stop some rows resting,
#: look keys up, carry the resting state into a rebuilt worklist, or
#: rest every row many times over (which rebuilds ``base``).
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("rest"),
            st.lists(
                st.tuples(st.integers(0, ROWS - 1), st.integers(0, KEYS)),
                min_size=1, max_size=20,
                unique_by=lambda pair: pair[0],
            ),
        ),
        st.tuples(
            st.just("stop"),
            st.lists(st.integers(0, ROWS - 1), min_size=1, max_size=8),
        ),
        st.tuples(
            st.just("lookup"),
            st.lists(st.integers(0, KEYS), min_size=1, max_size=10),
        ),
        st.tuples(
            st.just("carry"),
            st.lists(st.booleans(), min_size=ROWS, max_size=ROWS),
        ),
        st.tuples(st.just("churn"), st.integers(0, KEYS)),
    ),
    max_size=40,
)


class _CountedLookup:
    """``_lookup``, counting its calls and checking that every key it
    receives reads set filter bits in the worklist under test."""

    def __init__(self):
        self.calls = 0
        self.worklist = None

    def __call__(self, level, low):
        self.calls += 1
        assert self.worklist.may_hold(low >> np.uint64(32)).all()
        return _LOOKUP(level, low)


_LOOKUP = scanner_module._lookup


def _rest(worklist, rows, keys):
    # The token's high bits are dropped: keys are its low 32.
    tokens = np.array(keys, np.uint64) | np.uint64(7 << 40)
    worklist.rest(np.array(rows), tokens)


def _resting_keys_read_set(worklist):
    keys = worklist.rest_keys[worklist.rests].astype(np.uint64)
    assert worklist.may_hold(keys).all()


@given(steps=steps, bound=st.sampled_from([0, 3, 17, 1 << 13]))
@settings(max_examples=200, deadline=None)
def test_holders_match_the_columns(steps, bound):
    lookup = _CountedLookup()
    with mock.patch.object(scanner_module, "_LATEST_ENTRIES", bound), \
            mock.patch.object(scanner_module, "_lookup", lookup):
        worklist = _Worklist(list(range(ROWS)))
        worklist.settle_columns()
        lookup.worklist = worklist
        ever = [set() for _ in range(ROWS)]  # every key each row rested with
        for kind, arg in steps:
            if kind == "rest":
                _rest(worklist, [row for row, _ in arg], [k for _, k in arg])
                for row, key in arg:
                    ever[row].add(key)
            elif kind == "stop":
                worklist.rests[arg] = False
            elif kind == "carry":
                kept = np.array(arg)
                new = _Worklist(list(range(ROWS)))
                new.carry(worklist, np.arange(ROWS), kept)
                worklist = lookup.worklist = new
                ever = [keys if k else set() for keys, k in zip(ever, arg)]
            elif kind == "churn":
                for turn in range(25):
                    keys = [(arg + turn + row) % (KEYS + 1)
                            for row in range(ROWS)]
                    _rest(worklist, list(range(ROWS)), keys)
                    for row, key in enumerate(keys):
                        ever[row].add(key)
                    worklist.holders(np.array([arg], np.uint64))
            else:
                keys = np.sort(np.array(arg, np.uint64))
                found = worklist.holders(keys)
                assert len(found) == len(set(found))
                wanted = set(arg)
                expected = {
                    row for row in range(ROWS)
                    if worklist.rests[row]
                    and int(worklist.rest_keys[row]) in wanted
                }
                assert expected <= set(found)
                for row in found:
                    assert worklist.rests[row]
                    assert ever[row] & wanted
                rested = set().union(*ever)
                never = [k for k in range(NEVER + 1) if k not in rested]
                calls = lookup.calls
                assert worklist.holders(np.array(never, np.uint64)) == []
                assert lookup.calls == calls
            _resting_keys_read_set(worklist)


def test_carry_keeps_the_resting_rows_findable():
    old = _Worklist(list(range(10)))
    old.settle_columns()
    old.rest(np.array([2, 5, 7]), np.array([11, 12, 13], np.uint64))
    new = _Worklist([0, 2, 5, 7, 9])
    at = np.array([0, 2, 5, 7, 9])
    new.carry(old, at, np.ones(5, np.bool_))
    keys = np.array([11, 12, 13], np.uint64)
    assert sorted(new.holders(keys)) == [1, 2, 3]
    _resting_keys_read_set(new)


def test_a_rebuilt_base_forgets_the_keys_of_rows_that_stopped_resting():
    """Rows that stopped resting leave ``base`` when it is rebuilt from
    the columns, and their keys leave the filter with them."""
    worklist = _Worklist(list(range(ROWS)))
    worklist.settle_columns()
    lookup = _CountedLookup()
    lookup.worklist = worklist
    with mock.patch.object(scanner_module, "_LATEST_ENTRIES", 0), \
            mock.patch.object(scanner_module, "_lookup", lookup):
        _rest(worklist, list(range(ROWS)), list(range(ROWS)))
        worklist.holders(np.array([0], np.uint64))
        worklist.rests[:] = False
        # Rest four rows over and over until base is rebuilt: when
        # recent outgrows a quarter of base and the two hold over 1,024
        # more entries than twice the resting rows.  Key 0 passes the
        # filter until the lookup that rebuilds it, and must not reach
        # _lookup from there.
        for turn in range(3000):
            _rest(worklist, [turn % 4], [64 + turn % 4])
            worklist.holders(np.array([0, 64], np.uint64))
            if len(worklist.base) == 4:
                break
        else:
            raise AssertionError("base was never rebuilt")
    assert np.count_nonzero(worklist.rests) == 4
    _resting_keys_read_set(worklist)
    calls = lookup.calls
    with mock.patch.object(scanner_module, "_lookup", lookup):
        assert worklist.holders(np.arange(ROWS, dtype=np.uint64)) == []
    assert lookup.calls == calls


def test_the_filter_is_at_most_a_byte_per_row():
    for rows in (0, 1, 7, 48, 1000, 881):
        worklist = _Worklist(list(range(rows)))
        worklist.settle_columns()
        assert len(worklist.bits) <= max(rows, 1)
        assert len(worklist.bits) > rows // 2
