"""Replayed FULL passes equal the per-page walk, step by step.

Once a FULL pass has taken the settled path throughout and nothing has
changed since it began, the production scanner replays the passes after
it from a record instead of gathering and inserting again (the "Pass
replay" section of :mod:`repro.ksm.scanner`).  Each case below drives a
:class:`repro.ksm.scanner.KsmScanner` universe and a
:class:`tests.oracle.PerPageScanner` universe in lockstep and compares,
after **every** scan call and every table event, the stats snapshot,
the history, the volatility map of each table, the unstable-candidate
count and the table snapshots.

The cases aim at the ways a replay can go wrong that random op
sequences rarely reach: a write the dirty log no longer reports
(in-place store plus ``clear_dirty()``), a change in the middle of a
replayed pass, and table churn in the middle of one.
"""

from typing import List, NamedTuple

import pytest

from repro.ksm.scanner import KsmConfig, KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.physmem import ACTIVE, HostPhysicalMemory
from repro.sim.clock import SimClock

from tests.oracle import PerPageScanner

N_TABLES = 3
N_VPNS = 40
#: vpns below this hold tokens unique in the universe; the rest hold
#: the same token in every table and merge during convergence.
N_UNIQUE = 30
PASS_PAGES = N_TABLES * N_VPNS
#: Scan-call budget: does not divide a table, so segments straddle
#: table ends and pass ends.
BURST = 7


class Universe(NamedTuple):
    physmem: HostPhysicalMemory
    scanner: KsmScanner
    tables: List[PageTable]


def unique_token(t: int, vpn: int) -> int:
    return (t + 1) * 1000 + vpn


def build(scanner_class, policy: ScanPolicy) -> Universe:
    physmem = HostPhysicalMemory(capacity_bytes=1 << 28, page_size=4096)
    scanner = scanner_class(
        physmem,
        SimClock(),
        KsmConfig(pages_to_scan=BURST, scan_policy=policy),
    )
    tables = []
    for t in range(N_TABLES):
        table = PageTable(f"t{t}")
        for vpn in range(N_VPNS):
            token = unique_token(t, vpn) if vpn < N_UNIQUE else vpn
            physmem.map_token(table, vpn, token)
        scanner.register(table)
        tables.append(table)
    return Universe(physmem, scanner, tables)


def observe(universe: Universe) -> dict:
    scanner = universe.scanner
    return {
        "stats": scanner.snapshot_stats(),
        "history": list(scanner.history),
        "volatility": [
            scanner.volatility_tracked(t) for t in universe.tables
        ],
        "unstable": scanner.unstable_candidates,
        "tables": [t.snapshot() for t in universe.tables],
    }


class Twins:
    """A production universe and an oracle universe, kept in lockstep."""

    def __init__(self, policy: ScanPolicy = ScanPolicy.FULL) -> None:
        self.prod = build(KsmScanner, policy)
        self.ref = build(PerPageScanner, policy)

    def both(self, action) -> None:
        """Apply ``action(universe)`` to both universes, then compare."""
        action(self.prod)
        action(self.ref)
        self.check()

    def check(self) -> None:
        assert observe(self.prod) == observe(self.ref)

    def scan(self, budget: int = BURST) -> int:
        got = self.prod.scanner.scan_pages(budget)
        assert got == self.ref.scanner.scan_pages(budget)
        self.check()
        return got

    def run_cycles(self, cycles: int) -> None:
        self.both(lambda u: u.scanner.run_cycles(cycles))

    def passes(self) -> int:
        return self.prod.scanner.stats.full_scans

    def scan_until_passes(self, target: int) -> None:
        """Scan bursts until ``target`` passes have completed."""
        while self.passes() < target:
            self.scan()

    def converge(self) -> None:
        """Run until a clean pass has completed and the one after it is
        being replayed (pass 1 seeds the volatility map, pass 2
        merges the shared tokens, pass 3 is clean)."""
        self.scan_until_passes(3)
        assert self.prod.scanner._replaying


def count_calls(monkeypatch, scanner, name: str) -> List[int]:
    """Count calls of ``scanner.<name>``; the list holds the count."""
    calls = [0]
    original = getattr(scanner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(scanner, name, counting)
    return calls


def in_place_write(universe: Universe, t: int, vpn: int, token: int):
    """Store ``token`` into the exclusive frame behind t:vpn, then lose
    the write's dirty-log entry."""
    physmem, _scanner, tables = universe
    table = tables[t]
    fid = table.translate(vpn)
    assert physmem.states[fid] == ACTIVE and physmem.refs[fid] == 1
    assert physmem.write_token(table, vpn, token) == fid
    table.clear_dirty()


def test_replay_engages(monkeypatch):
    """After one clean pass, later passes over the unchanged world
    gather nothing, and every figure matches the per-page walk."""
    twins = Twins()
    twins.converge()
    gathers = count_calls(monkeypatch, twins.prod.scanner, "_gather")
    per_pass = []
    for _ in range(4):
        before, done = gathers[0], twins.passes()
        while twins.passes() == done:
            # Timed driving, so cpu_ms and elapsed_ms are compared too.
            twins.run_cycles(1)
        per_pass.append(gathers[0] - before)
    assert per_pass.count(0) >= 3, per_pass
    assert twins.prod.scanner.stats.cpu_ms > 0


@pytest.mark.parametrize("where", ["ahead", "behind"])
@pytest.mark.parametrize("content", ["fresh", "duplicate"])
def test_in_place_write_mid_replay(where, content):
    """An in-place store whose dirty-log entry is dropped, between two
    scan calls of a replayed pass, is still seen by the next segment:
    only the frame table's write counter reports it."""
    twins = Twins()
    twins.converge()
    twins.scan(N_VPNS + BURST)  # into the second table
    assert twins.prod.scanner._replaying
    t = 1 if where == "ahead" else 0
    vpn = N_UNIQUE - 1 if where == "ahead" else 0
    token = unique_token(2, 5) if content == "duplicate" else 99_999
    twins.both(lambda u: in_place_write(u, t, vpn, token))
    merges = twins.prod.scanner.stats.merges
    for _ in range(3 * PASS_PAGES // BURST):
        twins.scan()
    if content == "duplicate":
        assert twins.prod.scanner.stats.merges == merges + 1


@pytest.mark.parametrize(
    "change", ["in-place", "cow-break", "map", "unmap", "drop-stable"]
)
def test_break_mid_pass(change):
    """The first segment after a change inserts the replayed prefix
    before it examines anything, so the unstable-candidate count stays
    exact on both sides of the break."""
    twins = Twins()
    twins.converge()
    twins.scan(N_VPNS + 2 * BURST)
    assert twins.prod.scanner._replaying
    replayed = twins.prod.scanner.unstable_candidates
    assert replayed > 0
    assert replayed == twins.ref.scanner.unstable_candidates

    def act(universe):
        physmem, _scanner, tables = universe
        if change == "in-place":
            in_place_write(universe, 2, 3, 77_777)
        elif change == "cow-break":
            # A write to a merged page: the mapping moves to a copy.
            physmem.write_token(tables[2], N_VPNS - 1, 88_888)
        elif change == "map":
            physmem.map_token(tables[2], N_VPNS + 5, 66_666)
        elif change == "unmap":
            physmem.unmap(tables[0], 2)
        else:
            # Free a stable frame's last mapping behind the stable
            # tree; the stats snapshot then prunes the dead node.
            stable_fid = tables[0].translate(N_VPNS - 1)
            for table in tables:
                physmem.unmap(table, N_VPNS - 1)
            assert not physmem.is_live(stable_fid)

    twins.both(act)
    assert twins.prod.scanner._replaying
    twins.scan()  # the break
    assert not twins.prod.scanner._replaying
    assert twins.prod.scanner.unstable_candidates >= replayed
    for _ in range(2 * PASS_PAGES // BURST):
        twins.scan()


@pytest.mark.parametrize("which", [0, 1, 2])
def test_table_churn_mid_replay(which):
    """unregister, then register, in the middle of a replayed pass (the
    cursor sits in table 1): the prefix's nodes are in the tree when the
    unregistered table's candidates are dropped."""
    twins = Twins()
    twins.converge()
    twins.scan(N_VPNS + BURST)
    assert twins.prod.scanner._replaying

    twins.both(lambda u: u.scanner.unregister(u.tables[which]))
    twins.scan()
    twins.both(lambda u: u.scanner.register(u.tables[which]))
    for _ in range(4 * PASS_PAGES // BURST):
        twins.scan()
    # The world is quiet again, so replay resumes.
    assert twins.prod.scanner._replay is not None


def test_policy_switch_mid_replay():
    """A pass replayed under FULL and finished under INCREMENTAL keeps
    its candidates: they go into the tree for real."""
    twins = Twins()
    twins.converge()
    twins.scan(N_VPNS)
    assert twins.prod.scanner._replaying

    def switch(universe):
        universe.scanner.config.scan_policy = ScanPolicy.INCREMENTAL

    twins.both(switch)
    twins.scan(PASS_PAGES)
    twins.both(lambda u: u.physmem.write_token(u.tables[0], 0, 55_555))
    for _ in range(3):
        twins.scan(PASS_PAGES)


@pytest.mark.parametrize(
    "policy", [ScanPolicy.INCREMENTAL, ScanPolicy.HYBRID]
)
def test_other_policies_never_replay(monkeypatch, policy):
    """Only FULL replays: under the incremental policies every segment
    is gathered, quiet world or not."""
    twins = Twins(policy)
    scanner = twins.prod.scanner
    segments = count_calls(monkeypatch, scanner, "_examine_segment")
    gathers = count_calls(monkeypatch, scanner, "_gather")
    for spin in range(12):
        # Dirty one page per round so the incremental passes wake up;
        # HYBRID's periodic full passes walk everything.
        twins.both(
            lambda u: u.physmem.write_token(u.tables[0], 0, 500 + spin)
        )
        for _ in range(PASS_PAGES // BURST + 2):
            twins.scan()
            assert scanner._replay is None and not scanner._replaying
    assert segments[0] > 0
    assert gathers[0] == segments[0]
