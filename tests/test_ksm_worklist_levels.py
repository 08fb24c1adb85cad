"""The resting-candidate lookup of a FULL worklist.

:class:`repro.ksm.scanner._Worklist` finds the rows resting with a token
through sorted levels of ``(key << 32) | row`` entries that merge down
as they grow.  At paper scale every level and every merge is used; the
scanner lockstep suites run on universes too small to fill more than
the smallest level.  Here the level bound is shrunk so that a few dozen
rows exercise every merge, and each lookup is checked against the
columns it indexes:

* every row resting with one of the keys is found;
* every row found rests, and rested at some point with one of the keys
  (an entry outlives a change of the row's key until ``base`` is
  rebuilt; the scanner confirms a hit against the exact token).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ksm import scanner as scanner_module
from repro.ksm.scanner import _Worklist

ROWS = 48

#: One step: rest some rows with some keys, stop some rows resting, or
#: look keys up.  Keys come from a small space so they repeat.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("rest"),
            st.lists(
                st.tuples(st.integers(0, ROWS - 1), st.integers(0, 40)),
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
            st.lists(st.integers(0, 40), min_size=1, max_size=10),
        ),
    ),
    max_size=40,
)


@given(steps=steps, bound=st.sampled_from([0, 3, 17, 1 << 13]))
@settings(max_examples=200, deadline=None)
def test_holders_match_the_columns(steps, bound):
    with mock.patch.object(scanner_module, "_LATEST_ENTRIES", bound):
        worklist = _Worklist(list(range(ROWS)))
        worklist.settle_columns()
        ever = [set() for _ in range(ROWS)]  # every key each row rested with
        for kind, arg in steps:
            if kind == "rest":
                rows = np.array([row for row, _ in arg])
                keys = np.array([key for _, key in arg], np.uint64)
                # The token's high bits are dropped: keys are its low 32.
                worklist.rest(rows, keys | np.uint64(7 << 40))
                for row, key in arg:
                    ever[row].add(key)
            elif kind == "stop":
                worklist.rests[arg] = False
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


def test_carry_keeps_the_resting_rows_findable():
    old = _Worklist(list(range(10)))
    old.settle_columns()
    old.rest(np.array([2, 5, 7]), np.array([11, 12, 13], np.uint64))
    new = _Worklist([0, 2, 5, 7, 9])
    at = np.array([0, 2, 5, 7, 9])
    new.carry(old, at, np.ones(5, np.bool_))
    keys = np.array([11, 12, 13], np.uint64)
    assert sorted(new.holders(keys)) == [1, 2, 3]
