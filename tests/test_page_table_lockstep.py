"""The radix page table against the dict table it replaced.

Random sequences of table operations run on a
:class:`repro.mem.address_space.PageTable` and on
:class:`tests.oracle.DictPageTable` side by side.  After every step the
two must agree on the outcome (the value returned, or the type of the
error raised) and on the whole table: its entries, ``len``,
``version``, ``remap_epoch``, every translation, the pending dirty log
and each attached sink's stream.  The radix table lists entries and
logged vpns by vpn and feeds each sink one batch per logging call, so
the reference's entries and log are compared sorted and its one call
per vpn is concatenated.

The vpns cover the first leaf, both sides of the first leaf boundary
(511 | 512), one vpn of a guest-memory region of the second VM
(``1 << 30`` apart, the KVM stride) and a vpn far above every leaf.
Bulk calls run on both sides of ``SMALL_CALL`` and sometimes name a
taken or a repeated vpn.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.address_space import SMALL_CALL, PageTable

from tests.oracle import DictPageTable

VPNS = (
    list(range(0, 21))
    + list(range(510, 514))
    + [(1 << 30) + k for k in range(4)]
    + [(1 << 40) + 7]
)

vpns = st.sampled_from(VPNS)
pfns = st.integers(0, 50)
vpn_lists = st.lists(vpns, max_size=2 * SMALL_CALL + 4)


@st.composite
def bulk_map(draw):
    count = draw(st.integers(0, 2 * SMALL_CALL + 4))
    rows = draw(
        st.one_of(
            st.lists(vpns, min_size=count, max_size=count, unique=True),
            st.lists(vpns, min_size=count, max_size=count),
        )
    )
    return ("map_many", rows, draw(
        st.lists(pfns, min_size=len(rows), max_size=len(rows))
    ))


operations = st.one_of(
    st.tuples(st.just("map"), vpns, pfns),
    bulk_map(),
    st.tuples(st.just("remap"), vpns, pfns),
    st.tuples(st.just("unmap"), vpns),
    st.tuples(st.just("translate"), vpns),
    st.tuples(st.just("translate_many"), vpn_lists),
    st.tuples(st.just("log_dirty"), vpns),
    st.tuples(st.just("log_dirty_many"), vpn_lists),
    st.tuples(st.just("drain_dirty")),
    st.tuples(st.just("clear_dirty")),
    st.tuples(st.just("attach"), st.integers(0, 1)),
    st.tuples(st.just("detach"), st.integers(0, 1)),
)


class Side:
    """One table with two recording sinks, attached or not."""

    def __init__(self, table, batched: bool) -> None:
        self.table = table
        self.streams: List[List[int]] = [[], []]
        self.sinks = [
            stream.extend if batched else stream.append
            for stream in self.streams
        ]

    def apply(self, op):
        """The outcome of ``op``: a result, or the error's type."""
        name, *args = op
        table = self.table
        try:
            if name == "attach":
                return table.attach_dirty_sink(self.sinks[args[0]])
            if name == "detach":
                return table.detach_dirty_sink(self.sinks[args[0]])
            if name == "map_many":
                vpns, values = args
                if len(vpns) > SMALL_CALL and isinstance(table, PageTable):
                    vpns = np.array(vpns, np.int64)
                return table.map_many(vpns, values)
            result = getattr(table, name)(*args)
        except (KeyError, ValueError) as error:
            return type(error)
        if name == "translate_many":
            return list(result)
        if name == "drain_dirty":
            return sorted(result)
        return result

    def state(self):
        table = self.table
        return (
            sorted(table.entries()),
            len(table),
            table.version,
            table.remap_epoch,
            [table.translate(vpn) for vpn in VPNS],
            [table.is_mapped(vpn) for vpn in VPNS],
            tuple(sorted(table.pending_dirty_vpns())),
            table.dirty_count,
            [list(stream) for stream in self.streams],
        )


@given(st.lists(operations, max_size=40))
@settings(max_examples=300, deadline=None)
def test_radix_table_matches_the_dict_table(ops):
    radix = Side(PageTable("radix"), batched=True)
    ref = Side(DictPageTable("radix"), batched=False)
    for op in ops:
        assert radix.apply(op) == ref.apply(op), op
        assert radix.state() == ref.state(), op
    vpns, values = radix.table.columns()
    assert vpns.dtype == np.int64 and values.dtype == np.int64
    assert list(zip(vpns.tolist(), values.tolist())) == sorted(
        ref.table.entries()
    )
    assert radix.table.mapped_vpns().tolist() == sorted(ref.table._entries)
    assert radix.table.snapshot() == dict(ref.table.entries())


def test_a_clash_in_a_bulk_map_lands_the_rows_before_it():
    """A bulk map naming a taken vpn, or one vpn twice, maps the rows
    before the clash and raises map's own error."""
    taken = [20, 21, 22, 5] + list(range(30, 40))
    repeated = list(range(40, 52)) * 2
    for rows in (taken, repeated):
        radix, ref = PageTable("t"), DictPageTable("t")
        for table in (radix, ref):
            table.map(5, 1)
            with pytest.raises(ValueError, match="already mapped"):
                table.map_many(rows, range(100, 100 + len(rows)))
        assert sorted(radix.entries()) == sorted(ref.entries())
        assert radix.version == ref.version
