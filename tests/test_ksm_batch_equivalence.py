"""The columnar KSM scanner is bit-identical to the per-page oracle.

Random op sequences (writes, maps, unmaps, cold hints, scan bursts,
timed runs) drive twin universes — one scanned by the per-page
:class:`tests.oracle.PerPageScanner`, one by the production
:class:`repro.ksm.scanner.KsmScanner` — in lockstep, under all three
scan policies.  After every scan the return value must agree; at the
end the complete observable state must: stats (including scan-cost
``cpu_ms``), convergence history, table mappings, visible page
contents, volatility bookkeeping, frame counts, COW breaks and unstable
candidates.  The vpns reach past the first 512-entry leaf of the
scanner's volatility history: both sides of a leaf boundary, and a far
leaf.  Scenario-level comparisons live in
``tests/test_default_path_equivalence.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ksm.scanner import KsmConfig, KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.physmem import HostPhysicalMemory
from repro.sim.clock import SimClock

from tests.oracle import PerPageScanner

N_TABLES = 3
N_VPNS = 24
N_TOKENS = 6
#: Vpns beyond the first 512-entry history leaf: both sides of the
#: boundary between the second and third leaves, and a far leaf.
EDGE_VPNS = (510, 511, 512, 513, (1 << 40) + 7)

POLICIES = [ScanPolicy.FULL, ScanPolicy.INCREMENTAL, ScanPolicy.HYBRID]


def build_universe(policy, scanner_class):
    physmem = HostPhysicalMemory(capacity_bytes=1 << 28, page_size=4096)
    scanner = scanner_class(
        physmem, SimClock(), KsmConfig(scan_policy=policy)
    )
    tables = []
    for t in range(N_TABLES):
        table = PageTable(f"t{t}")
        for vpn in range(N_VPNS // 2):
            physmem.map_token(table, vpn, (vpn % N_TOKENS) + 1)
        scanner.register(table)
        tables.append(table)
    return physmem, scanner, tables


def apply_op(physmem, scanner, tables, op):
    """Apply one op; returns an observation or None."""
    kind = op[0]
    if kind == "write":
        _, t, vpn, token = op
        table = tables[t]
        if table.is_mapped(vpn):
            physmem.write_token(table, vpn, token)
    elif kind == "map":
        _, t, vpn, token = op
        table = tables[t]
        if not table.is_mapped(vpn):
            physmem.map_token(table, vpn, token)
    elif kind == "unmap":
        _, t, vpn = op
        table = tables[t]
        if table.is_mapped(vpn):
            physmem.unmap(table, vpn)
    elif kind == "hint":
        _, t, vpns = op
        return ("hint", scanner.hint_cold(tables[t], vpns))
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
        "saved": scanner.saved_bytes,
        "volatility": [
            scanner.volatility_tracked(t) for t in tables
        ],
    }
    for i, table in enumerate(tables):
        state[f"map{i}"] = table.snapshot()
        state[f"content{i}"] = {
            vpn: physmem.read_token(table, vpn)
            for vpn, _ in table.entries()
        }
    return state


vpns = st.one_of(
    st.integers(0, N_VPNS - 1), st.sampled_from(EDGE_VPNS)
)

ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, N_TABLES - 1),
            vpns,
            st.integers(1, N_TOKENS),
        ),
        st.tuples(
            st.just("map"),
            st.integers(0, N_TABLES - 1),
            vpns,
            st.integers(1, N_TOKENS),
        ),
        st.tuples(
            st.just("unmap"),
            st.integers(0, N_TABLES - 1),
            vpns,
        ),
        st.tuples(
            st.just("hint"),
            st.integers(0, N_TABLES - 1),
            st.lists(vpns, max_size=3),
        ),
        st.tuples(st.just("scan"), st.sampled_from([1, 2, 7, 30, 200])),
        st.tuples(st.just("run_ms"), st.sampled_from([1, 5, 25])),
    ),
    max_size=60,
)


@pytest.mark.parametrize("policy", POLICIES)
@given(ops=ops_strategy)
@settings(max_examples=30, deadline=None)
def test_batch_engine_is_bit_identical(policy, ops):
    ref_pm, ref_sc, ref_tables = build_universe(policy, PerPageScanner)
    bat_pm, bat_sc, bat_tables = build_universe(policy, KsmScanner)
    for step, op in enumerate(ops):
        ref_obs = apply_op(ref_pm, ref_sc, ref_tables, op)
        bat_obs = apply_op(bat_pm, bat_sc, bat_tables, op)
        assert ref_obs == bat_obs, f"step {step}: {op}"
    ref_state = observe(ref_pm, ref_sc, ref_tables)
    bat_state = observe(bat_pm, bat_sc, bat_tables)
    assert ref_state == bat_state


def test_unregister_reregister_equivalence():
    """Table churn (the trickiest cursor bookkeeping) stays lockstep."""
    script = []
    for burst in ([3, 1, 50], [7, 7], [200], [2, 9, 4]):
        script.append(("scan", burst))

    def run(scanner_class):
        physmem, scanner, tables = build_universe(
            ScanPolicy.INCREMENTAL, scanner_class
        )
        outs = []
        for i, (_, burst) in enumerate(script):
            for b in burst:
                outs.append(scanner.scan_pages(b))
            victim = tables[i % len(tables)]
            scanner.unregister(victim)
            outs.append(scanner.scan_pages(40))
            scanner.register(victim)
            physmem.write_token(victim, 0, 40 + i)
        outs.append(scanner.scan_pages(500))
        return outs, observe(physmem, scanner, tables)

    assert run(PerPageScanner) == run(KsmScanner)
