"""Dirty-page tracking and the incremental/hybrid scan policies."""

import pytest

from repro.ksm.scanner import KsmConfig, KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.physmem import HostPhysicalMemory
from repro.sim.clock import SimClock
from repro.units import MiB

PAGE = 4096


def consumed(table):
    """Attach a no-op dirty sink: a table logs only while consumed."""
    table.attach_dirty_sink(lambda vpn: None)
    return table


def make_scanner(**kwargs):
    pm = HostPhysicalMemory(64 * MiB, PAGE)
    scanner = KsmScanner(pm, SimClock(), KsmConfig(**kwargs))
    return pm, scanner


class TestDirtyLog:
    def test_map_logs_dirty(self):
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        table = consumed(PageTable("a"))
        pm.map_token(table, 3, 5)
        assert table.pending_dirty_vpns() == (3,)

    def test_in_place_store_logs_dirty(self):
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        table = consumed(PageTable("a"))
        pm.map_token(table, 0, 5)
        table.clear_dirty()
        pm.write_token(table, 0, 6)
        assert table.pending_dirty_vpns() == (0,)

    def test_cow_break_logs_dirty(self):
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        a, b = consumed(PageTable("a")), consumed(PageTable("b"))
        fid = pm.map_token(a, 0, 5)
        pm.share_mapping(b, 0, fid)
        a.clear_dirty()
        pm.write_token(a, 0, 9)  # refcount 2 -> COW break
        assert pm.cow_breaks == 1
        assert a.pending_dirty_vpns() == (0,)

    def test_unmap_logs_dirty(self):
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        table = consumed(PageTable("a"))
        pm.map_token(table, 0, 5)
        table.clear_dirty()
        pm.unmap(table, 0)
        assert table.pending_dirty_vpns() == (0,)

    def test_ksm_merge_does_not_log_dirty(self):
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        a, b = consumed(PageTable("a")), consumed(PageTable("b"))
        pm.map_token(a, 0, 5)
        target = pm.map_token(b, 0, 5)
        a.clear_dirty()
        pm.merge_into(a, 0, target)
        assert a.pending_dirty_vpns() == ()

    def test_log_deduplicates(self):
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        table = consumed(PageTable("a"))
        pm.map_token(table, 0, 5)
        for token in (6, 7, 8):
            pm.write_token(table, 0, token)
        assert table.dirty_count == 1
        assert table.drain_dirty() == [0]
        assert table.dirty_count == 0

    def test_version_tracks_mapping_set_only(self):
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        table = PageTable("a")
        v0 = table.version
        pm.map_token(table, 0, 5)
        v1 = table.version
        assert v1 > v0
        pm.write_token(table, 0, 6)  # in-place: same mapping set
        assert table.version == v1
        pm.unmap(table, 0)
        assert table.version > v1

    def test_unconsumed_table_keeps_no_log(self):
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        a, b = PageTable("a"), PageTable("b")
        fid = pm.map_token(a, 0, 5)  # map
        pm.write_token(a, 0, 6)  # in-place store
        pm.share_mapping(b, 0, fid)
        pm.write_token(a, 0, 7)  # COW break
        pm.write_tokens(a, [1, 2, 0], [8, 9, 9])
        pm.unmap(a, 1)
        assert a.dirty_count == 0 and b.dirty_count == 0
        seen = []

        def ignore(vpn):
            return None

        a.attach_dirty_sink(seen.extend)
        a.attach_dirty_sink(ignore)
        pm.write_tokens(a, [2, 3], [1, 1])
        assert a.pending_dirty_vpns() == (2, 3) and seen == [2, 3]
        a.detach_dirty_sink(seen.extend)
        assert a.dirty_count == 2  # one consumer left
        a.detach_dirty_sink(ignore)
        assert a.dirty_count == 0
        pm.write_token(a, 2, 4)
        assert a.dirty_count == 0


class TestConfig:
    def test_string_policy_coerced(self):
        cfg = KsmConfig(scan_policy="incremental")
        assert cfg.scan_policy is ScanPolicy.INCREMENTAL

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            KsmConfig(scan_policy="never")

    def test_bad_hybrid_interval_rejected(self):
        with pytest.raises(ValueError):
            KsmConfig(hybrid_full_interval=0)


def _populate(pm, tables, pages=16, shared_tokens=4):
    """Give each table ``pages`` pages; the first ``shared_tokens`` vpns
    hold cross-table-identical content."""
    for t_index, table in enumerate(tables):
        for vpn in range(pages):
            if vpn < shared_tokens:
                token = 1000 + vpn
            else:
                token = 50_000 + 1000 * t_index + vpn
            pm.map_token(table, vpn, token)


class TestIncrementalPolicy:
    def test_reaches_full_fixpoint(self):
        results = {}
        for policy in ("full", "incremental", "hybrid"):
            pm, scanner = make_scanner(scan_policy=policy)
            tables = [PageTable(f"t{i}") for i in range(3)]
            for table in tables:
                scanner.register(table)
            _populate(pm, tables)
            stats = scanner.run_until_converged(max_passes=12)
            results[policy] = (stats.pages_saved, stats.merges)
        assert results["incremental"] == results["full"]
        assert results["hybrid"] == results["full"]

    def test_incremental_examines_far_fewer_pages(self):
        scanned = {}
        for policy in ("full", "incremental"):
            pm, scanner = make_scanner(scan_policy=policy)
            tables = [PageTable(f"t{i}") for i in range(3)]
            for table in tables:
                scanner.register(table)
            _populate(pm, tables, pages=64)
            scanner.run_until_converged(max_passes=12)
            # Quiescent follow-up cycles: FULL keeps rescanning
            # everything, INCREMENTAL finds empty dirty logs.
            scanner.run_cycles(20)
            scanned[policy] = scanner.snapshot_stats().pages_scanned
        assert scanned["incremental"] * 5 <= scanned["full"]

    def test_quiescent_incremental_costs_no_cpu(self):
        pm, scanner = make_scanner(scan_policy="incremental")
        table = PageTable("a")
        scanner.register(table)
        _populate(pm, [table])
        scanner.run_until_converged(max_passes=8)
        cpu_before = scanner.stats.cpu_ms
        scanner.run_cycles(10)
        assert scanner.stats.cpu_ms == cpu_before

    def test_write_reexamined_after_dirty(self):
        pm, scanner = make_scanner(scan_policy="incremental")
        a, b = PageTable("a"), PageTable("b")
        scanner.register(a)
        scanner.register(b)
        pm.map_token(a, 0, 5)
        pm.map_token(b, 0, 6)
        scanner.run_until_converged(max_passes=6)
        assert scanner.stats.merges == 0
        # Now make them identical; only the dirty log can resubmit b:0.
        pm.write_token(b, 0, 5)
        scanner.run_until_converged(max_passes=6)
        assert scanner.stats.merges == 1
        assert a.translate(0) == b.translate(0)

    def test_cow_break_unmerges_and_can_remerge(self):
        pm, scanner = make_scanner(scan_policy="incremental")
        a, b = PageTable("a"), PageTable("b")
        scanner.register(a)
        scanner.register(b)
        pm.map_token(a, 0, 5)
        pm.map_token(b, 0, 5)
        scanner.run_until_converged(max_passes=6)
        assert scanner.snapshot_stats().pages_saved == 1
        pm.write_token(a, 0, 9)  # COW break, a:0 private again
        scanner.run_until_converged(max_passes=6)
        assert scanner.snapshot_stats().pages_saved == 0
        pm.write_token(a, 0, 5)  # identical again
        scanner.run_until_converged(max_passes=6)
        assert scanner.snapshot_stats().pages_saved == 1

    def test_dirty_log_drained_counted(self):
        pm, scanner = make_scanner(scan_policy="incremental")
        table = PageTable("a")
        scanner.register(table)
        _populate(pm, [table])
        scanner.run_until_converged(max_passes=6)
        assert scanner.stats.dirty_log_drained >= 16

    def test_full_policy_drains_nothing(self):
        pm, scanner = make_scanner(scan_policy="full")
        table = PageTable("a")
        scanner.register(table)
        _populate(pm, [table])
        scanner.run_until_converged(max_passes=6)
        assert scanner.stats.dirty_log_drained == 0


class TestHybridPolicy:
    def test_hybrid_catches_unlogged_mutation(self):
        """Content mutated behind the page table (no dirty-log entry) is
        only ever found by a full pass — HYBRID's safety net."""
        merges = {}
        for policy in ("incremental", "hybrid"):
            pm, scanner = make_scanner(
                scan_policy=policy, hybrid_full_interval=2
            )
            a, b = PageTable("a"), PageTable("b")
            scanner.register(a)
            scanner.register(b)
            pm.map_token(a, 0, 5)
            pm.map_token(b, 0, 6)
            scanner.run_until_converged(max_passes=4)
            # Rewrite b:0 and lose the write's dirty-log entry, so no
            # log ever reports the mutation.
            pm.write_token(b, 0, 5)
            b.clear_dirty()
            # Drive passes by dirtying an unrelated page each round so
            # the incremental scanner keeps waking up.
            for spin in range(8):
                pm.write_token(a, 7, 100 + spin)
                scanner.run_until_converged(max_passes=4)
            merges[policy] = scanner.stats.merges
        assert merges["incremental"] == 0
        assert merges["hybrid"] == 1

    def test_interval_one_behaves_like_full_walks(self):
        pm, scanner = make_scanner(
            scan_policy="hybrid", hybrid_full_interval=1
        )
        tables = [PageTable(f"t{i}") for i in range(2)]
        for table in tables:
            scanner.register(table)
        _populate(pm, tables)
        stats = scanner.run_until_converged(max_passes=8)
        _pm2, full = make_scanner(scan_policy="full")
        tables2 = [PageTable(f"t{i}") for i in range(2)]
        for table in tables2:
            full.register(table)
        _populate(_pm2, tables2)
        full_stats = full.run_until_converged(max_passes=8)
        assert stats.pages_saved == full_stats.pages_saved
        assert stats.merges == full_stats.merges


class TestRegisterSeedsRecheck:
    """Regression tests: ``register`` must treat every page the table
    already maps as a merge candidate (madvise(MERGEABLE) semantics).
    The dirty log only covers later writes, so an INCREMENTAL scanner
    that relies on it alone settles below the FULL fixpoint whenever a
    table arrives with pre-existing content — most visibly after an
    unregister (which drops the pending worklist) and re-register."""

    def test_pre_registration_pages_examined(self):
        pm, scanner = make_scanner(scan_policy="incremental")
        a, b = PageTable("a"), PageTable("b")
        pm.map_token(a, 0, 5)
        pm.map_token(b, 0, 5)
        scanner.register(a)
        scanner.register(b)
        scanner.run_until_converged(max_passes=8)
        assert scanner.stats.merges == 1
        assert a.translate(0) == b.translate(0)

    def test_unregister_reregister_reaches_full_fixpoint(self):
        pm, scanner = make_scanner(scan_policy="incremental")
        a, b = PageTable("a"), PageTable("b")
        scanner.register(a)
        scanner.register(b)
        pm.map_token(a, 0, 5)
        pm.map_token(b, 0, 5)
        scanner.unregister(b)
        scanner.run_until_converged(max_passes=8)
        assert scanner.stats.merges == 0
        scanner.register(b)
        scanner.run_until_converged(max_passes=8)
        assert scanner.stats.merges == 1
        assert a.translate(0) == b.translate(0)
