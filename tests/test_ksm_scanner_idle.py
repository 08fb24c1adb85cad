"""The drained scanner's O(1) idle short-circuit.

Once a whole wrap of the table list yields no work, ``scan_pages`` must
return without spinning the empty-round loop again — and must wake up
(and only then) on any event that can create work: dirty logging on a
registered table, registration, or a cold hint.  The short-circuit must
also preserve the table-cursor drift of the spin it replaces, which the
step-by-step policy-equivalence suite pins down; here we pin the O(1)
behaviour itself, for the production scanner ("batch") and the per-page
oracle ("object").
"""

import pytest

from repro.ksm.scanner import KsmConfig, KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.physmem import HostPhysicalMemory
from repro.sim.clock import SimClock

from tests.oracle import PerPageScanner

ENGINES = {"object": PerPageScanner, "batch": KsmScanner}


def build(engine, policy=ScanPolicy.INCREMENTAL, tables=2, pages=8):
    physmem = HostPhysicalMemory(capacity_bytes=1 << 28, page_size=4096)
    scanner = ENGINES[engine](
        physmem, SimClock(), KsmConfig(scan_policy=policy)
    )
    made = []
    for t in range(tables):
        table = PageTable(f"t{t}")
        for vpn in range(pages):
            physmem.map_token(table, vpn, 1000 + t * pages + vpn)
        scanner.register(table)
        made.append(table)
    return physmem, scanner, made


def drain(scanner):
    """Scan until a call returns 0 (the idle fixpoint)."""
    for _ in range(100):
        if scanner.scan_pages(10_000) == 0:
            return
    raise AssertionError("scanner never drained")


class SpinCounter:
    """Counts workless table advances (the spin the guard removes)."""

    def __init__(self, scanner):
        self.scanner = scanner
        self.calls = 0
        self._orig = scanner._advance_table

    def __enter__(self):
        def counting():
            self.calls += 1
            return self._orig()

        self.scanner._advance_table = counting
        return self

    def __exit__(self, *exc):
        del self.scanner._advance_table
        return False


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    # FULL never idles while pages are mapped (every pass walks
    # everything); the fixpoint exists for incremental worklists.
    "policy",
    [ScanPolicy.INCREMENTAL, ScanPolicy.HYBRID],
)
def test_idle_scan_does_no_per_table_work(engine, policy):
    _, scanner, _ = build(engine, policy)
    drain(scanner)
    with SpinCounter(scanner) as spin:
        for _ in range(50):
            assert scanner.scan_pages(10_000) == 0
    # The old behaviour walked every table len+2 times per idle call;
    # the short-circuit must not advance tables at all.
    assert spin.calls == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_write_wakes_idle_scanner(engine):
    physmem, scanner, tables = build(engine)
    drain(scanner)
    assert scanner.scan_pages(10_000) == 0
    physmem.write_token(tables[0], 3, 9999)
    assert scanner.scan_pages(10_000) > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_unmap_wakes_idle_scanner(engine):
    physmem, scanner, tables = build(engine)
    drain(scanner)
    physmem.unmap(tables[1], 2)
    # The unmap is logged dirty; the scanner must process the drain
    # (pruning bookkeeping) rather than short-circuit forever.
    scanner.scan_pages(10_000)
    assert scanner.scan_pages(10_000) == 0
    assert 2 not in scanner.volatility_tracked(tables[1])


@pytest.mark.parametrize("engine", ENGINES)
def test_cold_hint_wakes_idle_scanner(engine):
    _, scanner, tables = build(engine)
    drain(scanner)
    assert scanner.scan_pages(10_000) == 0
    assert scanner.hint_cold(tables[0], [1, 2]) == 2
    assert scanner.scan_pages(10_000) > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_register_wakes_idle_scanner(engine):
    physmem, scanner, _ = build(engine)
    drain(scanner)
    assert scanner.scan_pages(10_000) == 0
    extra = PageTable("late")
    for vpn in range(4):
        physmem.map_token(extra, vpn, 7000 + vpn)
    scanner.register(extra)
    assert scanner.scan_pages(10_000) > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_idle_calls_are_uncharged(engine):
    _, scanner, _ = build(engine)
    drain(scanner)
    before = scanner.snapshot_stats()
    for _ in range(10):
        scanner.run_for_ms(5)
    after = scanner.snapshot_stats()
    assert after.pages_scanned == before.pages_scanned
    assert after.full_scans == before.full_scans


@pytest.mark.parametrize("engine", ENGINES)
def test_idle_equivalence_with_reference_spin(engine):
    """The short-circuit replicates the retired spin's cursor drift:
    interleaving idle calls with real work must not change results."""

    def run(idle_calls):
        physmem, scanner, tables = build(engine, ScanPolicy.INCREMENTAL)
        drain(scanner)
        for _ in range(idle_calls):
            scanner.scan_pages(100)
        physmem.write_token(tables[0], 0, 4242)
        physmem.write_token(tables[1], 0, 4242)
        for _ in range(6):
            scanner.scan_pages(10_000)
        return scanner.snapshot_stats(), list(scanner.history)

    stats_none, hist_none = run(0)
    for idle in (1, 3, 7):
        stats, hist = run(idle)
        assert stats.merges == stats_none.merges
        # Idle calls record no passes, so history lengths agree too.
        assert len(hist) == len(hist_none)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("wake_to", [ScanPolicy.FULL, ScanPolicy.HYBRID])
def test_switch_to_a_full_pass_wakes_idle_scanner(engine, wake_to):
    """Idled by incremental passes, the scanner wakes when the policy
    makes the next pass full: a full pass has work while any table maps
    a page, so it must not stay idle until some table event."""
    physmem, scanner, tables = build(engine, ScanPolicy.FULL)
    for table in tables:
        physmem.map_token(table, 100, 5)  # merges across the tables
    for _ in range(3):
        scanner.scan_pages(10_000)
    scanner.config.scan_policy = ScanPolicy.INCREMENTAL
    drain(scanner)
    mapped = sum(len(t.snapshot()) for t in tables)
    passes = scanner.stats.full_scans
    scanner.config.hybrid_full_interval = 1  # every HYBRID pass is full
    scanner.config.scan_policy = wake_to
    assert scanner.scan_pages(mapped) == mapped
    assert scanner.scan_pages(mapped) == mapped
    assert scanner.stats.full_scans > passes


def test_switch_to_full_keeps_the_engines_in_lockstep():
    """After the wake-up both engines walk the same pages."""
    universes = [build(engine, ScanPolicy.FULL) for engine in ENGINES]
    for _, scanner, _ in universes:
        for _ in range(3):
            scanner.scan_pages(10_000)
        scanner.config.scan_policy = ScanPolicy.INCREMENTAL
        drain(scanner)
        scanner.config.scan_policy = ScanPolicy.FULL
    for budget in (7, 400, 13, 400):
        got = [scanner.scan_pages(budget) for _, scanner, _ in universes]
        assert got == [budget, budget]
    stats = [scanner.snapshot_stats() for _, scanner, _ in universes]
    assert stats[0] == stats[1]
