"""The parallel runner (repro.exec.runner): fan-out and fallback."""

import multiprocessing
import os

import pytest

from repro.errors import ReproError
from repro.exec.runner import (
    ENV_JOBS,
    ParallelRunner,
    RunnerStats,
    WorkUnit,
    resolve_jobs,
)
from repro.sim.rng import stable_hash64


def square_hash(value):
    """A pure module-level unit body (picklable for pool workers)."""
    return stable_hash64("unit", value) % 1000


def crash_in_worker(value):
    """Dies hard in a pool worker; computes normally in-process."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return ("survived", value)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert resolve_jobs() == 1

    def test_env(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "3")
        assert resolve_jobs() == 3

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "3")
        assert resolve_jobs(2) == 2

    def test_clamped_to_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_bad_env_raises_cleanly(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "many")
        with pytest.raises(ReproError):
            resolve_jobs()


class TestWorkUnit:
    def test_fingerprint_stable_and_arg_sensitive(self):
        a = WorkUnit(square_hash, (1,))
        assert a.fingerprint() == WorkUnit(square_hash, (1,)).fingerprint()
        assert a.fingerprint() != WorkUnit(square_hash, (2,)).fingerprint()


class TestMap:
    UNITS = [WorkUnit(square_hash, (value,)) for value in range(8)]

    def test_empty(self):
        assert ParallelRunner(jobs=4).map([]) == []

    def test_serial_order_preserved(self):
        assert ParallelRunner(jobs=1).map(self.UNITS) == [
            square_hash(value) for value in range(8)
        ]

    def test_parallel_equals_serial(self):
        serial = ParallelRunner(jobs=1).map(self.UNITS)
        parallel = ParallelRunner(jobs=4).map(self.UNITS)
        assert parallel == serial

    def test_parallel_stats(self):
        stats = RunnerStats()
        ParallelRunner(jobs=4, stats=stats).map(self.UNITS)
        assert stats.parallel_units + stats.serial_units == 8

    def test_pool_clamped_to_usable_cpus(self, monkeypatch):
        """jobs=4 on a 1-CPU affinity mask: still the pool path, with
        one worker."""
        from repro.exec import runner as runner_module

        widths = []
        pool = runner_module.ProcessPoolExecutor

        def recording_pool(max_workers):
            widths.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(
            runner_module, "ProcessPoolExecutor", recording_pool
        )
        stats = RunnerStats()
        parallel = ParallelRunner(jobs=4, stats=stats).map(self.UNITS)
        assert parallel == ParallelRunner(jobs=1).map(self.UNITS)
        assert widths == [1]
        assert stats.parallel_units == 8

    def test_usable_cpus_without_affinity(self, monkeypatch):
        from repro.exec.runner import usable_cpus

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3

    def test_worker_crash_falls_back_in_process(self):
        stats = RunnerStats()
        runner = ParallelRunner(jobs=2, stats=stats)
        units = [WorkUnit(crash_in_worker, (value,)) for value in range(2)]
        assert runner.map(units) == [("survived", 0), ("survived", 1)]
        assert stats.pool_fallbacks >= 1
        assert stats.serial_units == 2

    def test_deterministic_error_propagates(self):
        def boom(value):
            raise ValueError(f"bad unit {value}")

        with pytest.raises(ValueError):
            ParallelRunner(jobs=1).map([WorkUnit(boom, (1,))])
