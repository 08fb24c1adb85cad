"""The content-addressed result cache (repro.exec.cache) and the grid
runner that is its one caller (``run_grid``)."""

import dataclasses

import pytest

from repro.config import ScenarioSpec
from repro.core.experiments.consolidation import footprint
from repro.core.experiments.scenarios import run, run_cached, run_grid
from repro.core.preload import CacheDeployment
from repro.core.report import render_vm_breakdown
from repro.exec.cache import (
    ENV_CACHE_DIR,
    ENV_CACHE_ENABLED,
    ResultCache,
    code_version,
    default_cache,
    reset_default_cache,
)
from repro.exec.stats import GLOBAL_RUNNER_STATS

TINY = ScenarioSpec(
    "daytrader4", CacheDeployment.SHARED_COPY, scale=0.02,
    measurement_ticks=1, seed=99,
)

#: Measure calls made in this process (``jobs=1`` runs in-process).
CALLS = []


def describe(spec):
    """A cheap module-level measure: no testbed, just the spec's seed."""
    CALLS.append(spec.seed)
    return {"scenario": spec.scenario, "seed": spec.seed}


GRID = [
    (describe, ScenarioSpec("daytrader4", seed=seed)) for seed in (1, 2, 3)
]


def _runner_units():
    stats = GLOBAL_RUNNER_STATS
    return stats.parallel_units + stats.serial_units


class TestResultCache:
    def test_get_or_compute_computes_once(self, tmp_path):
        """A cell measured once is served from the cache afterwards."""
        cache = ResultCache(root=tmp_path)
        CALLS.clear()
        first = run_grid(GRID[:1], cache=cache)
        second = run_grid(GRID[:1], cache=cache)
        assert first == second == [{"scenario": "daytrader4", "seed": 1}]
        assert CALLS == [1]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_persists_across_instances(self, tmp_path):
        ResultCache(root=tmp_path).put(
            ResultCache(root=tmp_path).key("x"), [1, 2, 3]
        )
        fresh = ResultCache(root=tmp_path)
        value, hit = fresh.get(fresh.key("x"))
        assert hit and value == [1, 2, 3]

    def test_version_bump_invalidates(self, tmp_path):
        old = ResultCache(root=tmp_path, version="v1")
        old.put(old.key("result"), "stale")
        new = ResultCache(root=tmp_path, version="v2")
        value, hit = new.get(new.key("result"))
        assert not hit
        # The old entry is still there under its own version key.
        value, hit = old.get(old.key("result"))
        assert hit and value == "stale"

    def test_default_version_is_code_version(self, tmp_path):
        assert ResultCache(root=tmp_path).version == code_version()

    def test_eviction_bounds_entries(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_entries=3)
        for index in range(6):
            cache.put(cache.key("entry", index), index)
        assert cache.entry_count() <= 3
        assert cache.stats.evictions >= 3

    def test_disabled_cache_touches_nothing(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        measure, spec = GRID[0]
        value = run_grid([(measure, spec)], cache=cache)
        assert value == [{"scenario": "daytrader4", "seed": 1}]
        assert not cache.entries()
        assert cache.stats.lookups == 0 and cache.stats.stores == 0
        assert cache.get(cache.key(measure, *spec.cache_parts()))[1] is False

    def test_env_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_ENABLED, "0")
        assert ResultCache(root=tmp_path).enabled is False
        monkeypatch.setenv(ENV_CACHE_ENABLED, "1")
        assert ResultCache(root=tmp_path).enabled is True

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key("damaged")
        cache.put(key, "value")
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        fresh = ResultCache(root=tmp_path)
        value, hit = fresh.get(key)
        assert not hit
        assert not path.exists()

    def test_wipe(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        for index in range(4):
            cache.put(cache.key(index), index)
        assert cache.wipe() == 4
        assert cache.entry_count() == 0

    def test_memo_serves_after_file_loss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key("memoized")
        cache.put(key, "value")
        cache._path(key).unlink()
        value, hit = cache.get(key)
        assert hit and value == "value"

    def test_atomic_entries_only(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(cache.key("a"), "a")
        leftovers = [
            p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []


class TestRunGrid:
    def test_run_and_footprint_cells_get_different_keys(self, tmp_path):
        """Two measures over one spec never share a cache entry."""
        cache = ResultCache(root=tmp_path)
        run_key = cache.key(run, *TINY.cache_parts())
        footprint_key = cache.key(footprint, *TINY.cache_parts())
        assert run_key != footprint_key
        cache.put(run_key, "a run result")
        cache.put(footprint_key, "a footprint")
        cells = [(run, TINY), (footprint, TINY)]
        assert run_grid(cells, cache=cache) == ["a run result", "a footprint"]
        assert cache.stats.hits == 2 and cache.stats.misses == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parent_resolves_hits_and_stores_misses(self, tmp_path, jobs):
        cache = ResultCache(root=tmp_path)
        run_grid(GRID[1:2], cache=cache)  # one cell already cached
        warm = ResultCache(root=tmp_path)
        units = _runner_units()
        results = run_grid(GRID, jobs=jobs, cache=warm)
        assert results == [
            {"scenario": "daytrader4", "seed": seed} for seed in (1, 2, 3)
        ]
        assert warm.stats.hits == 1
        assert warm.stats.misses == 2
        assert warm.stats.stores == 2
        assert _runner_units() - units == 2

    def test_worker_count_changes_nothing(self, tmp_path):
        serial = ResultCache(root=tmp_path / "serial")
        parallel = ResultCache(root=tmp_path / "parallel")
        assert run_grid(GRID, jobs=1, cache=serial) == run_grid(
            GRID, jobs=2, cache=parallel
        )
        names = lambda cache: [path.name for path in cache.entries()]
        assert names(serial) == names(parallel)
        assert len(names(serial)) == len(GRID)


class TestScenarioRoundTrip:
    def test_store_load_equal(self, tmp_path):
        writer = ResultCache(root=tmp_path)
        fresh = run_cached(TINY, writer)
        assert writer.stats.misses == 1 and writer.stats.stores == 1

        reader = ResultCache(root=tmp_path)
        loaded = run_cached(TINY, reader)
        assert reader.stats.hits == 1 and reader.stats.misses == 0
        assert render_vm_breakdown(
            loaded.vm_breakdown, "t"
        ) == render_vm_breakdown(fresh.vm_breakdown, "t")
        assert loaded.ksm_stats.pages_scanned == fresh.ksm_stats.pages_scanned

    def test_no_cache_falls_through(self):
        result = run_cached(TINY, cache=None)
        assert result.scenario == "daytrader4"

    def test_result_carries_no_dump(self, tmp_path):
        """A cached result holds the reduced breakdowns and reports, not
        the system dump they were computed from (megabytes that no
        cache reader needs)."""
        cache = ResultCache(root=tmp_path)
        result = run_cached(TINY, cache)
        fields = {field.name for field in dataclasses.fields(result)}
        assert "dump" not in fields
        (entry,) = cache.entries()
        assert entry.stat().st_size < 64 * 1024


class TestWarmFigureRegeneration:
    """Acceptance: with a warm cache, regenerating all of figs 2-5
    performs zero scenario rebuilds (asserted via cache stats)."""

    FIGS = ["fig2", "fig3a", "fig4", "fig5a"]
    ARGS = ["--scale", "0.02", "--ticks", "1"]

    def test_warm_cache_rebuilds_nothing(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        reset_default_cache()
        try:
            for figure in self.FIGS:
                assert main([figure, *self.ARGS]) == 0
            cache = default_cache()
            # fig2/fig3a share one daytrader4 run; fig4/fig5a the other.
            cold_misses = cache.stats.misses
            assert cold_misses == 2
            assert cache.stats.hits == 2

            for figure in self.FIGS:
                assert main([figure, *self.ARGS]) == 0
            assert cache.stats.misses == cold_misses  # zero rebuilds
            assert cache.stats.hits == 6
            capsys.readouterr()
        finally:
            reset_default_cache()
