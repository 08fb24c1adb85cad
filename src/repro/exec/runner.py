"""Deterministic fan-out of independent work units over processes.

The experiments this runner executes — scenario runs, consolidation
footprint measurements, ablation grid cells — are pure functions of
their arguments: every random stream inside the simulator is derived
from seeds that travel *with* the unit, never from worker identity,
scheduling order or wall clock.  Parallel execution is therefore
bit-identical to serial execution, and :class:`ParallelRunner` only has
to preserve input order when collecting results.

A worker pool that dies (crashed worker, fork failure, unpicklable
payload) degrades to in-process execution instead of failing the run.
A unit that raises fails the run: dump collection retries its own
simulated transient failures (:mod:`repro.core.dump`), so nothing a
unit raises is worth another attempt.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.exec.fingerprint import fingerprint64

#: Environment variable providing the default worker count.
ENV_JOBS = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: argument, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get(ENV_JOBS, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ReproError(
                f"bad {ENV_JOBS} value {raw!r}: expected an integer"
            ) from None
    return max(1, int(jobs))


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), at least 1.

    A pool wider than this only adds workers that wait for a CPU and
    hold a testbed's memory meanwhile.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # no affinity API on this platform
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class WorkUnit:
    """One independent computation: a picklable function + arguments.

    ``fn`` must be addressable by module path (a module-level function),
    the requirement ``ProcessPoolExecutor`` imposes; ``args`` must carry
    everything the computation depends on, seeds included.
    """

    fn: Callable[..., Any]
    args: Tuple = ()
    label: str = ""

    def fingerprint(self) -> int:
        """Stable identity of this unit (also the worker seed)."""
        return fingerprint64(
            "work-unit",
            getattr(self.fn, "__module__", ""),
            getattr(self.fn, "__qualname__", repr(self.fn)),
            self.args,
            self.label,
        )


def _execute(unit: WorkUnit) -> Any:
    """Run one unit (in a worker or in-process).

    The global :mod:`random` state is re-seeded from the unit's own
    fingerprint first: the simulator never touches it, but this way even
    code that incorrectly reached for it would behave as a function of
    the unit alone — not of which worker ran it or in which order.
    """
    random.seed(unit.fingerprint())
    return unit.fn(*unit.args)


@dataclass
class RunnerStats:
    """Counters describing how units actually ran."""

    parallel_units: int = 0
    serial_units: int = 0
    #: Always 0: no unit is retried (kept for the reports that list it).
    retries: int = 0
    pool_fallbacks: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "parallel_units": self.parallel_units,
            "serial_units": self.serial_units,
            "retries": self.retries,
            "pool_fallbacks": self.pool_fallbacks,
            "wall_seconds": round(self.wall_seconds, 3),
        }

    def render(self) -> str:
        return (
            f"{self.parallel_units} parallel, {self.serial_units} serial "
            f"units; {self.retries} retries, "
            f"{self.pool_fallbacks} pool fallbacks"
        )


class ParallelRunner:
    """Maps :class:`WorkUnit` s over a process pool, deterministically.

    ``jobs=1`` (the default) runs everything in-process; results are
    always returned in input order and are identical either way.  A
    broken pool falls back to in-process execution for whatever had not
    completed.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        stats: Optional[RunnerStats] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.stats = stats if stats is not None else RunnerStats()

    def map(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Run every unit; results in input order."""
        units = list(units)
        if not units:
            return []
        started = time.perf_counter()
        try:
            if self.jobs == 1 or len(units) == 1:
                return [self._run_serial(unit) for unit in units]
            return self._run_parallel(units)
        finally:
            self.stats.wall_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------

    def _run_parallel(self, units: List[WorkUnit]) -> List[Any]:
        results: dict = {}
        pool_broke = False
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(units), usable_cpus())
            ) as pool:
                futures = {
                    index: pool.submit(_execute, unit)
                    for index, unit in enumerate(units)
                }
                for index, future in futures.items():
                    try:
                        results[index] = future.result()
                        self.stats.parallel_units += 1
                    except BrokenProcessPool:
                        pool_broke = True
        except Exception:
            # The pool itself could not be built or torn down (fork
            # failure, unpicklable unit, resource limits): degrade to
            # in-process execution for everything still missing.
            pool_broke = True
        if pool_broke:
            self.stats.pool_fallbacks += 1
        for index in range(len(units)):
            if index not in results:
                results[index] = self._run_serial(units[index])
        return [results[index] for index in range(len(units))]

    def _run_serial(self, unit: WorkUnit) -> Any:
        value = _execute(unit)
        self.stats.serial_units += 1
        return value
