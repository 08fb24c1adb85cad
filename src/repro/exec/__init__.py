"""repro.exec: deterministic parallel execution + content-addressed caching.

The paper's headline artifacts are sweeps: the Fig. 7/8 consolidation
runs walk many VM-count points and every breakdown figure rebuilds a
multi-gigabyte page-level testbed.  Nothing in those runs depends on
wall-clock time or shared mutable state — each is a pure function of
``(scenario, deployment, scale, ticks, seed, scan policy, fault plan)``
— so this package stops recomputing what has not changed and fans the
independent pieces out over processes:

* :mod:`repro.exec.fingerprint` reduces any experiment input to a
  canonical form and hashes it with the same process-stable BLAKE2b hash
  the simulator uses for page contents.

* :mod:`repro.exec.cache` is an on-disk, content-addressed
  :class:`ResultCache`: results are stored under their input
  fingerprint (which includes the code version), so repeated figure and
  benchmark invocations — and cross-figure duplicates like the
  identical ``daytrader4`` run behind Fig. 2 and Fig. 3(a) — become
  near-instant hits.

* :mod:`repro.exec.runner` is a :class:`ParallelRunner` that maps
  independent :class:`WorkUnit` s over a ``ProcessPoolExecutor``
  (``--jobs N`` / ``REPRO_JOBS``), bit-identical to serial execution
  regardless of worker count or completion order, with graceful
  fallback to in-process execution when the pool dies.

* :mod:`repro.exec.stats` surfaces hit/miss/eviction and
  parallel/serial/fallback counters (``repro cache``, ``--cache-stats``).
"""

from repro.exec.cache import (
    CacheStats,
    ResultCache,
    code_version,
    default_cache,
    reset_default_cache,
    set_default_cache,
)
from repro.exec.fingerprint import canonical, fingerprint64, fingerprint_hex
from repro.exec.runner import (
    ParallelRunner,
    RunnerStats,
    WorkUnit,
    resolve_jobs,
)
from repro.exec.stats import (
    GLOBAL_RUNNER_STATS,
    render_exec_stats,
    reset_exec_stats,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "code_version",
    "default_cache",
    "set_default_cache",
    "reset_default_cache",
    "canonical",
    "fingerprint64",
    "fingerprint_hex",
    "ParallelRunner",
    "RunnerStats",
    "WorkUnit",
    "resolve_jobs",
    "GLOBAL_RUNNER_STATS",
    "render_exec_stats",
    "reset_exec_stats",
]
