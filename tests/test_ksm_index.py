"""Unit and property tests for the KSM token index.

The index keeps the stable tree (token -> fid) and the unstable tree
(token -> (table, vpn)) in two dicts.  These tests drive it through
random operation sequences against a one-dict model of the intended
semantics and check, after every step, that each token has at most one
node across both trees and that every probe agrees with the model.
"""

from hypothesis import given, settings, strategies as st

from repro.ksm.index import STABLE, UNSTABLE, TokenIndex
from repro.mem.address_space import PageTable

TABLES = (PageTable("vm1:pid1"), PageTable("vm2:pid1"), PageTable("vm3:pid1"))
TOKENS = range(8)

tokens = st.sampled_from(TOKENS)
tables = st.sampled_from(TABLES)
vpns = st.integers(min_value=0, max_value=5)
fids = st.integers(min_value=1, max_value=50)

operations = st.one_of(
    st.tuples(st.just("set_stable"), tokens, fids),
    st.tuples(st.just("set_unstable"), tokens, tables, vpns),
    st.tuples(st.just("drop"), tokens),
    st.tuples(st.just("clear_unstable")),
    st.tuples(st.just("drop_unstable_for"), tables),
)


def apply_to_model(model: dict, op: tuple) -> None:
    """The intended semantics: one node per token, in a single dict."""
    name, *args = op
    if name == "set_stable":
        token, fid = args
        model[token] = (STABLE, fid)
    elif name == "set_unstable":
        token, table, vpn = args
        model[token] = (UNSTABLE, table, vpn)
    elif name == "drop":
        model.pop(args[0], None)
    elif name == "clear_unstable":
        for token in [t for t, node in model.items() if node[0] == UNSTABLE]:
            del model[token]
    else:
        (table,) = args
        for token in [
            t for t, node in model.items()
            if node[0] == UNSTABLE and node[1] is table
        ]:
            del model[token]


def assert_matches(index: TokenIndex, model: dict) -> None:
    for token in TOKENS:
        assert index.lookup(token) == model.get(token)
    stable = {t: node[1] for t, node in model.items() if node[0] == STABLE}
    assert dict(index.stable_items()) == stable
    assert sorted(index.stable_fids()) == sorted(stable.values())
    # Each token has at most one node: the two trees together hold
    # exactly as many nodes as there are tokens with a node.
    assert index.stable_count == len(stable)
    assert index.unstable_count == len(model) - len(stable)
    assert len(index) == len(model)


def build(ops) -> TokenIndex:
    index = TokenIndex()
    for name, *args in ops:
        getattr(index, name)(*args)
    return index


class TestOneNodePerToken:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(operations, max_size=40))
    def test_random_sequences_match_the_model(self, ops):
        index = TokenIndex()
        model: dict = {}
        for op in ops:
            before = (index.stable_rev, dict(index.stable_items()))
            name, *args = op
            getattr(index, name)(*args)
            apply_to_model(model, op)
            assert_matches(index, model)
            # The revision moves whenever the stable projection did.
            if dict(index.stable_items()) != before[1]:
                assert index.stable_rev > before[0]
            assert index.stable_rev >= before[0]

    def test_set_stable_retires_the_unstable_node(self):
        index = TokenIndex()
        index.set_unstable(7, TABLES[0], 3)
        index.set_stable(7, 11)
        assert index.lookup(7) == (STABLE, 11)
        assert (index.stable_count, index.unstable_count) == (1, 0)

    def test_set_unstable_over_stable_retires_it_and_bumps_rev(self):
        index = TokenIndex()
        index.set_stable(7, 11)
        rev = index.stable_rev
        index.set_unstable(7, TABLES[1], 4)
        assert index.lookup(7) == (UNSTABLE, TABLES[1], 4)
        assert (index.stable_count, index.unstable_count) == (0, 1)
        assert index.stable_rev > rev


class TestClearUnstable:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(operations, max_size=40))
    def test_empties_unstable_and_keeps_stable_and_rev(self, ops):
        index = build(ops)
        stable = dict(index.stable_items())
        rev = index.stable_rev
        index.clear_unstable()
        assert index.unstable_count == 0
        assert dict(index.stable_items()) == stable
        assert index.stable_rev == rev
        for token in TOKENS:
            node = index.lookup(token)
            assert node is None or node[0] == STABLE

    def test_index_is_reusable_after_a_clear(self):
        index = TokenIndex()
        index.set_unstable(1, TABLES[0], 0)
        index.clear_unstable()
        index.set_unstable(1, TABLES[2], 5)
        assert index.lookup(1) == (UNSTABLE, TABLES[2], 5)


class TestDropUnstableFor:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(operations, max_size=40), tables)
    def test_removes_only_that_tables_candidates(self, ops, victim):
        index = build(ops)
        before = {token: index.lookup(token) for token in TOKENS}
        rev = index.stable_rev
        index.drop_unstable_for(victim)
        for token, node in before.items():
            if node is not None and node[0] == UNSTABLE and node[1] is victim:
                assert index.lookup(token) is None
            else:
                assert index.lookup(token) == node
        assert index.stable_rev == rev


class TestBulkFreshInsert:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(operations, max_size=30),
        st.lists(
            st.tuples(tokens, vpns),
            max_size=len(TOKENS),
            unique_by=lambda pair: pair[0],
        ),
        tables,
    )
    def test_equals_repeated_set_unstable(self, ops, candidates, table):
        bulk = build(ops)
        one_by_one = build(ops)
        # The bulk insert's contract: only tokens with no node go in.
        # They share the token range of ``ops``, so they land next to
        # the stable and unstable nodes the sequence left behind.
        fresh = [
            (token, vpn) for token, vpn in candidates
            if not bulk.any_node([token])
        ]
        fresh_tokens = [token for token, _ in fresh]
        fresh_vpns = [vpn for _, vpn in fresh]
        bulk.bulk_set_unstable_fresh(fresh_tokens, table, fresh_vpns)
        for token, vpn in fresh:
            one_by_one.set_unstable(token, table, vpn)
        for token in TOKENS:
            assert bulk.lookup(token) == one_by_one.lookup(token)
        assert bulk.stable_items() == one_by_one.stable_items()
        assert bulk.unstable_count == one_by_one.unstable_count
        assert bulk.stable_rev == one_by_one.stable_rev


class TestAnyNode:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(operations, max_size=40), st.lists(tokens, max_size=6))
    def test_reports_whether_some_token_has_a_node(self, ops, probe):
        index = build(ops)
        expected = any(index.lookup(token) is not None for token in probe)
        assert index.any_node(probe) is expected
