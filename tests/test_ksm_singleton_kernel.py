"""The singletons' column kernel against the per-page oracle.

Cross-VM sharing makes every token unique within its table and repeated
across tables: page ``vpn`` of any table holds ``token(vpn, version)``.
Then every segment is singletons, and both stable-tree hits and unstable
partners reach ``KsmScanner._examine_singletons`` (the 6-token universe
of ``test_ksm_batch_equivalence.py`` sends most rows through multi-page
groups instead).  Between scans the ops rewrite and unmap pages (an
unstable partner moves or goes), kill a stable node (a copy-on-write
break, then a free of the merged frame) and map one frame at a second
table's vpn (``share_mapping``, so a partner maps the row's own frame).
Twin universes, one scanned by :class:`tests.oracle.PerPageScanner` and
one by :class:`repro.ksm.scanner.KsmScanner`, must agree after every op
and in their whole observable state at the end, under all three scan
policies and once with intact huge blocks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ksm.scanner import KsmConfig, KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.physmem import HostPhysicalMemory
from repro.sim.clock import SimClock

from tests.oracle import PerPageScanner

N_TABLES = 3
#: Few pages, so that random ops keep meeting the same pages and a scan
#: call of a few pages already crosses passes.
N_VPNS = 12
VERSIONS = 3
POLICIES = [ScanPolicy.FULL, ScanPolicy.INCREMENTAL, ScanPolicy.HYBRID]
#: Aligned vpn ranges formed into huge blocks in the THP universes.
BLOCKS = ((0, 4), (4, 4))


def token(vpn, version):
    """The content of page ``vpn`` at ``version``: unique within a table,
    equal across tables."""
    return 1 + vpn * VERSIONS + version


def build_universe(policy, scanner_class, blocks=False):
    physmem = HostPhysicalMemory(capacity_bytes=1 << 28, page_size=4096)
    scanner = scanner_class(
        physmem, SimClock(), KsmConfig(scan_policy=policy)
    )
    tables = []
    for t in range(N_TABLES):
        table = PageTable(f"t{t}")
        # The last vpns of t1 and t2 stay free for shared frames.
        for vpn in range(N_VPNS - 2 * t):
            physmem.map_token(table, vpn, token(vpn, 0))
        if blocks:
            for base, npages in BLOCKS:
                assert physmem.form_block(table, base, npages)
        scanner.register(table)
        tables.append(table)
    return physmem, scanner, tables


def apply_op(physmem, scanner, tables, op):
    """Apply one op; returns an observation or None."""
    kind = op[0]
    if kind == "write":
        _, t, vpn, version = op
        if tables[t].is_mapped(vpn):
            physmem.write_token(tables[t], vpn, token(vpn, version))
    elif kind == "map":
        _, t, vpn, version = op
        if not tables[t].is_mapped(vpn):
            physmem.map_token(tables[t], vpn, token(vpn, version))
    elif kind == "unmap":
        _, t, vpn = op
        if tables[t].is_mapped(vpn):
            physmem.unmap(tables[t], vpn)
    elif kind == "kill":
        # Every mapping of the page's frame: the first breaks
        # copy-on-write, the others unmap, so a merged frame is freed.
        _, vpn = op
        fids = {t.translate(vpn) for t in tables} - {None}
        for fid in fids:
            first = True
            for table in tables:
                if table.translate(vpn) != fid:
                    continue
                if first:
                    version = (physmem.token_of(fid) - 1) % VERSIONS
                    physmem.write_token(
                        table, vpn, token(vpn, (version + 1) % VERSIONS)
                    )
                    first = False
                else:
                    physmem.unmap(table, vpn)
    elif kind == "share":
        # The frame of (t, vpn) also at (other, vpn): the token stays
        # unique within the other table.
        _, t, other, vpn = op
        fid = tables[t].translate(vpn)
        if (
            t != other and fid is not None
            and not tables[other].is_mapped(vpn)
            and not physmem.block_of(fid)
        ):
            physmem.share_mapping(tables[other], vpn, fid)
    elif kind == "scan":
        return ("scan", scanner.scan_pages(op[1]))
    elif kind == "run_ms":
        stats = scanner.run_for_ms(op[1])
        return ("run_ms", stats.pages_scanned, stats.cpu_ms)
    return None


def observe(physmem, scanner, tables):
    state = {
        "stats": scanner.snapshot_stats(),
        "history": list(scanner.history),
        "frames": physmem.frames_in_use,
        "cow_breaks": physmem.cow_breaks,
        "unstable": scanner.unstable_candidates,
        "blocks": physmem.blocks_intact,
        "volatility": [scanner.volatility_tracked(t) for t in tables],
    }
    for i, table in enumerate(tables):
        state[f"map{i}"] = table.snapshot()
        state[f"content{i}"] = {
            vpn: physmem.read_token(table, vpn) for vpn, _ in table.entries()
        }
    return state


tables_ = st.integers(0, N_TABLES - 1)
vpns = st.integers(0, N_VPNS - 1)
versions = st.integers(0, VERSIONS - 1)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("write"), tables_, vpns, versions),
        st.tuples(st.just("map"), tables_, vpns, versions),
        st.tuples(st.just("unmap"), tables_, vpns),
        st.tuples(st.just("kill"), vpns),
        st.tuples(st.just("share"), tables_, tables_, vpns),
        st.tuples(st.just("scan"), st.sampled_from([1, 3, 7, 30, 200])),
        st.tuples(st.just("run_ms"), st.sampled_from([1, 5])),
    ),
    # Long enough for pages to meet across several passes.
    min_size=30,
    max_size=120,
)


def run_lockstep(policy, ops, blocks=False):
    ref = build_universe(policy, PerPageScanner, blocks)
    col = build_universe(policy, KsmScanner, blocks)
    for step, op in enumerate(ops):
        assert apply_op(*ref, op) == apply_op(*col, op), f"step {step}: {op}"
    assert observe(*ref) == observe(*col)


@pytest.mark.parametrize("policy", POLICIES)
@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_singleton_kernel_matches_the_oracle(policy, ops):
    run_lockstep(policy, ops)


@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_singleton_kernel_splits_huge_blocks_like_the_oracle(ops):
    run_lockstep(ScanPolicy.FULL, ops, blocks=True)


def test_the_column_branch_is_reached():
    """A warm-up of the cross-table universe merges through stable hits
    and unstable partners, all in ``merge_many`` batches."""
    physmem, scanner, tables = build_universe(ScanPolicy.FULL, KsmScanner)
    batches = []
    merge_many = physmem.merge_many
    physmem.merge_many = lambda table, vpns, targets: (
        batches.append(len(vpns)), merge_many(table, vpns, targets)
    )
    rows = []
    examine_row = scanner._examine_row
    scanner._examine_row = lambda *row: (
        rows.append(row), examine_row(*row)
    )
    scanner.run_until_converged()
    assert scanner.stats.merges == sum(batches) > 0
    assert not rows
    # Every page of t2 shares t0's and t1's frame for its vpn.
    for vpn, fid in tables[2].entries():
        assert tables[0].translate(vpn) == tables[1].translate(vpn) == fid
