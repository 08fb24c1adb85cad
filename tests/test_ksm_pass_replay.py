"""Settled FULL segments equal the per-page walk, step by step.

Once a worklist row's frame is unchanged since its last settled
examination, the production scanner renews it instead of gathering and
inserting it again (the "Settled segments" section of
:mod:`repro.ksm.scanner`): a segment of such rows gathers nothing.  Each
case below drives a :class:`repro.ksm.scanner.KsmScanner` universe and a
:class:`tests.oracle.PerPageScanner` universe in lockstep and compares,
after **every** scan call and every table event, the stats snapshot,
the history, the volatility map of each table, the unstable-candidate
count and the table snapshots.

The cases aim at the ways renewal can go wrong that random op
sequences rarely reach: a write the dirty log no longer reports
(in-place store plus ``clear_dirty()``), a change in the middle of a
renewed pass, a token gaining a node while a later row rests with it,
a copy-on-write break that only changes a surviving frame's refcount,
a page unmapped and mapped again ahead of the cursor, and table churn
and policy switches in the middle of a pass.  A seeded random walk of
the same kinds of events between scan calls of random size covers the
interleavings the named cases do not.
"""

import random
from typing import List, NamedTuple

import numpy as np
import pytest

from repro.ksm.scanner import KsmConfig, KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.physmem import ACTIVE, STABLE, HostPhysicalMemory
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
        # Production gathers, by table name; a renewed segment has none.
        self.gathered: List[str] = []
        scanner = self.prod.scanner
        gather = scanner._gather

        def gathering(table, *args):
            self.gathered.append(table.name)
            return gather(table, *args)

        scanner._gather = gathering
        self.last_gathers = 0

    def both(self, action) -> None:
        """Apply ``action(universe)`` to both universes, then compare."""
        action(self.prod)
        action(self.ref)
        self.check()

    def check(self) -> None:
        assert observe(self.prod) == observe(self.ref)

    def scan(self, budget: int = BURST) -> int:
        before = len(self.gathered)
        got = self.prod.scanner.scan_pages(budget)
        assert got == self.ref.scanner.scan_pages(budget)
        self.last_gathers = len(self.gathered) - before
        self.check()
        return got

    @property
    def renewing(self) -> bool:
        """The last scan call gathered nothing: it renewed every segment
        it walked."""
        return self.last_gathers == 0

    def run_cycles(self, cycles: int) -> None:
        self.both(lambda u: u.scanner.run_cycles(cycles))

    def passes(self) -> int:
        return self.prod.scanner.stats.full_scans

    def scan_until_passes(self, target: int) -> None:
        """Scan bursts until ``target`` passes have completed."""
        while self.passes() < target:
            self.scan()

    def converge(self) -> None:
        """Run until every row is fresh, so the pass in progress renews
        all of it (pass 1 seeds the volatility map, pass 2 merges the
        shared tokens and the unique rows come to rest, pass 3
        re-examines the rows whose frames those merges changed)."""
        self.scan_until_passes(3)
        assert all_fresh(self.prod.scanner)


def resting_count(scanner: KsmScanner) -> int:
    """Resting candidates held in the FULL worklists' columns."""
    return sum(
        int(worklist.rests.sum())
        for worklist in scanner._column_cache.values()
        if worklist.rests is not None
    )


def all_fresh(scanner: KsmScanner) -> bool:
    """Every FULL worklist row's frame is unchanged since the row last
    settled: its next examination renews it."""
    stamps = np.frombuffer(scanner.physmem.stamps, dtype=np.int64)
    return all(
        worklist.settled is not None
        and not (stamps[worklist.fids] > worklist.settled).any()
        for worklist in scanner._column_cache.values()
    )


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
    assert twins.renewing
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
    """A change in the middle of a renewed pass gets its segment
    examined while the rest is renewed, and the unstable-candidate count
    stays exact on both sides of the change."""
    twins = Twins()
    twins.converge()
    twins.scan(N_VPNS + 2 * BURST)
    assert twins.renewing
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

    resting = resting_count(twins.prod.scanner)
    twins.both(act)
    assert twins.renewing
    gathers = len(twins.gathered)
    twins.scan()  # the break
    assert twins.prod.scanner.unstable_candidates >= replayed
    for _ in range(2 * PASS_PAGES // BURST):
        twins.scan()
    if change == "unmap":
        # The row leaves the worklist, and its resting candidate too.
        assert resting_count(twins.prod.scanner) == resting - 1
    else:
        assert len(twins.gathered) > gathers  # the change was examined


@pytest.mark.parametrize("which", [0, 1, 2])
def test_table_churn_mid_replay(which):
    """unregister, then register, in the middle of a renewed pass (the
    cursor sits in table 1): the renewed candidates of the unregistered
    table leave the tree with it, the others stay."""
    twins = Twins()
    twins.converge()
    twins.scan(N_VPNS + BURST)
    assert twins.renewing

    twins.both(lambda u: u.scanner.unregister(u.tables[which]))
    twins.scan()
    twins.both(lambda u: u.scanner.register(u.tables[which]))
    for _ in range(4 * PASS_PAGES // BURST):
        twins.scan()
    # The world is quiet again, so whole segments are renewed again.
    assert twins.renewing


def test_policy_switch_mid_replay():
    """A pass renewed under FULL and finished under INCREMENTAL keeps
    its candidates: they become ordinary unstable nodes."""
    twins = Twins()
    twins.converge()
    twins.scan(N_VPNS)
    assert twins.renewing

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
    """Only FULL renews: under the incremental policies every segment
    is gathered, quiet world or not, and no candidate rests."""
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
            assert resting_count(scanner) == 0
    assert segments[0] > 0
    assert gathers[0] == segments[0]


def test_write_in_one_table_leaves_the_others_renewed():
    """A write to table 2 early in a renewed pass: the segments of
    tables 0 and 1 still gather nothing, and table 2's segment holding
    the write is examined."""
    twins = Twins()
    twins.converge()
    twins.scan_until_passes(4)  # the cursor sits at the start of table 0
    mark = len(twins.gathered)
    twins.both(lambda u: in_place_write(u, 2, 10, 123_456))
    twins.scan_until_passes(5)
    assert twins.gathered[mark:]
    assert set(twins.gathered[mark:]) == {"t2"}


def merged_with(universe: Universe, t: int, vpn: int) -> int:
    """The STABLE frame behind t:vpn."""
    fid = universe.tables[t].translate(vpn)
    assert universe.physmem.states[fid] == STABLE
    return fid


def test_changed_row_takes_a_later_resting_rows_token():
    """A row of table 0 changes to the content a resting row of table 2
    holds.  Once the change passes the volatility filter, table 0's row
    gives the token a node first: the later row stops resting, finds
    that node, and merges into the earlier frame, as the per-page walk
    does."""
    twins = Twins()
    twins.converge()
    twins.scan_until_passes(4)
    twins.both(lambda u: in_place_write(u, 0, 0, unique_token(2, 5)))
    twins.scan_until_passes(8)
    for universe in (twins.prod, twins.ref):
        frame = merged_with(universe, 0, 0)
        assert universe.tables[2].translate(5) == frame


def test_stable_promotion_of_a_resting_rows_token():
    """Rows of tables 0 and 1 change to the content a resting row of
    table 2 holds: they merge with each other, promoting the token to
    stable, and the resting row, which no longer rests, then merges
    into the stable frame."""
    twins = Twins()
    twins.converge()
    twins.scan_until_passes(4)
    token = unique_token(2, 5)

    def write(universe):
        in_place_write(universe, 0, 10, token)
        in_place_write(universe, 1, 10, token)

    twins.both(write)
    twins.scan_until_passes(8)
    for universe in (twins.prod, twins.ref):
        frame = merged_with(universe, 0, 10)
        assert universe.tables[1].translate(10) == frame
        assert universe.tables[2].translate(5) == frame


def test_unlogged_store_inside_a_renewed_segment():
    """An in-place store whose dirty-log entry is dropped, to a resting
    row the pass has already renewed: only the frame's stamp reports
    it, and the next pass examines that row's segment and sees the new
    content."""
    twins = Twins()
    twins.converge()
    twins.scan_until_passes(4)
    twins.scan(N_VPNS + 25)  # past table 1's vpn 20
    assert twins.renewing
    mark = len(twins.gathered)
    twins.both(lambda u: in_place_write(u, 1, 20, 424_242))
    twins.scan_until_passes(6)
    assert "t1" in twins.gathered[mark:]
    for universe in (twins.prod, twins.ref):
        tracked = universe.scanner.volatility_tracked(universe.tables[1])
        assert tracked[20] == 424_242


def test_cow_break_from_a_frame_two_rows_map():
    """Table 1 maps table 0's page 3 a second time, and convergence
    promotes the frame.  A write through table 1 breaks copy-on-write:
    the surviving frame keeps its token and state and only loses a
    reference, and only that refcount change tells the scanner that
    table 1's page moved to a new frame."""
    twins = Twins()
    shared = N_VPNS + 2

    def share(universe):
        tables = universe.tables
        universe.physmem.share_mapping(
            tables[1], shared, tables[0].translate(3)
        )

    twins.both(share)
    twins.converge()
    twins.scan_until_passes(4)
    frame = merged_with(twins.prod, 0, 3)
    physmem = twins.prod.physmem
    token = physmem.tokens[frame]
    assert physmem.refs[frame] == 2
    twins.both(
        lambda u: u.physmem.write_token(u.tables[1], shared, 515_151)
    )
    assert physmem.refs[frame] == 1
    assert physmem.states[frame] == STABLE and physmem.tokens[frame] == token
    twins.scan_until_passes(6)
    for universe in (twins.prod, twins.ref):
        tracked = universe.scanner.volatility_tracked(universe.tables[1])
        assert tracked[shared] == 515_151


@pytest.mark.parametrize("content", ["resting", "stable"])
def test_page_unmapped_ahead_of_the_cursor_and_mapped_again(content):
    """In a renewed pass a page of table 1 ahead of the cursor is
    unmapped (a balloon release, say), the pass walks past its row, and
    the page is mapped again before the table's next worklist, with
    content another table holds (a resting row's, or a stable frame's).
    The unmapped row recorded no frame that a later map could stamp, so
    it must not stay settled: the next passes examine it and merge it,
    as the per-page walk does."""
    twins = Twins()
    twins.converge()
    twins.scan_until_passes(4)
    twins.scan(N_VPNS + BURST)  # the cursor sits early in table 1
    assert twins.renewing
    vpn = 20
    twins.both(lambda u: u.physmem.unmap(u.tables[1], vpn))
    twins.scan(N_VPNS // 2)  # past the row, still in table 1
    token = unique_token(2, 5) if content == "resting" else N_VPNS - 1
    twins.both(lambda u: u.physmem.map_token(u.tables[1], vpn, token))
    twins.scan_until_passes(twins.passes() + 3)
    for universe in (twins.prod, twins.ref):
        frame = universe.tables[1].translate(vpn)
        assert universe.physmem.states[frame] == STABLE
        assert frame == universe.tables[2].translate(
            5 if content == "resting" else N_VPNS - 1
        )


@pytest.mark.parametrize("burst", [1, 13, N_VPNS, PASS_PAGES + 3])
def test_bursts_straddle_ends_amid_churn(burst):
    """Bursts of several sizes straddle segment, table and pass ends
    while pages change, a table leaves and comes back, and the policy
    leaves FULL and comes back, each in the middle of a pass."""
    twins = Twins()
    twins.converge()

    def policy(value):
        def switch(universe):
            universe.scanner.config.scan_policy = value

        return switch

    events = [
        lambda u: in_place_write(u, 2, 4, 700_001),
        # A copy-on-write break on a merged page.
        lambda u: u.physmem.write_token(u.tables[0], N_VPNS - 2, 700_002),
        lambda u: u.scanner.unregister(u.tables[1]),
        lambda u: u.scanner.register(u.tables[1]),
        policy(ScanPolicy.INCREMENTAL),
        policy(ScanPolicy.FULL),
        # The content of a row that rests in another table.
        lambda u: in_place_write(u, 0, 7, unique_token(1, 9)),
        policy(ScanPolicy.HYBRID),
        policy(ScanPolicy.FULL),
        # A write wakes the scanner if the incremental passes idled it.
        lambda u: in_place_write(u, 2, 12, 700_003),
    ]
    for event in events:
        for _ in range(3):
            twins.scan(burst)
        twins.both(event)
    twins.scan_until_passes(twins.passes() + 3)



def random_event(rng: random.Random, unmapped: List[tuple]):
    """One table event for :func:`test_random_events_between_scans`: a
    store (its dirty-log entry kept or dropped), an unmap, a map or a
    shared mapping of an unmapped page, an unregister or register, or a
    policy switch; a no-op where it does not apply.  Half the maps and
    shared mappings go back to the page an earlier event unmapped last
    (``unmapped``), often before the pass is over."""
    kind = rng.choices(
        ["store", "lost-store", "unmap", "map", "share", "churn", "policy"],
        [3, 2, 3, 3, 1, 1, 1],
    )[0]
    if kind in ("map", "share") and unmapped and rng.random() < 0.5:
        t, vpn = unmapped.pop()
    else:
        t, vpn = rng.randrange(N_TABLES), rng.randrange(N_VPNS + 6)
    if kind == "unmap":
        unmapped.append((t, vpn))
    token = rng.choice(
        [unique_token(rng.randrange(N_TABLES), rng.randrange(N_UNIQUE)),
         N_UNIQUE + rng.randrange(N_VPNS - N_UNIQUE),
         900_000 + rng.randrange(20)]
    )
    # FULL half the time: only FULL passes renew.
    policy = rng.choice([ScanPolicy.FULL] * 2 + list(ScanPolicy)[1:])

    def event(universe):
        physmem, scanner, tables = universe
        table = tables[t]
        fid = table.translate(vpn)
        if kind in ("store", "lost-store") and fid is not None:
            physmem.write_token(table, vpn, token)
            if kind == "lost-store":
                table.clear_dirty()
        elif kind == "unmap" and fid is not None:
            physmem.unmap(table, vpn)
        elif kind == "map" and fid is None:
            physmem.map_token(table, vpn, token)
        elif kind == "share" and fid is None:
            other = tables[(t + 1) % N_TABLES].translate(vpn % N_VPNS)
            if other is not None:
                physmem.share_mapping(table, vpn, other)
        elif kind == "churn":
            if table in scanner.registered_tables:
                scanner.unregister(table)
            else:
                scanner.register(table)
        elif kind == "policy":
            scanner.config.scan_policy = policy

    return event


@pytest.mark.parametrize("seed", range(24))
def test_random_events_between_scans(seed):
    """Random table events between scan calls of random size, from a
    converged world whose passes renew every segment, in lockstep with
    the per-page walk after every step; then, under FULL with every
    table registered, three more passes."""
    rng = random.Random(seed)
    twins = Twins()
    twins.converge()
    unmapped: List[tuple] = []
    for _ in range(1000):
        if rng.random() < 0.55:
            twins.scan(rng.choice([1, 3, BURST, 13, N_VPNS, 2 * N_VPNS + 5]))
        else:
            twins.both(random_event(rng, unmapped))

    def finish(universe):
        physmem, scanner, tables = universe
        scanner.config.scan_policy = ScanPolicy.FULL
        for table in tables:
            if table not in scanner.registered_tables:
                scanner.register(table)
        # A write wakes a scanner the incremental passes idled.
        physmem.write_token(tables[0], 0, 123_456_789)

    twins.both(finish)
    twins.scan_until_passes(twins.passes() + 3)
