"""The paper's scenarios and the one experiment driver.

Three guest-VM arrangements appear in the breakdown figures (Figs. 2–5):

* ``daytrader4`` — four 1 GB guests, each running WAS + DayTrader
  (Figs. 2, 3(a), 4, 5(a));
* ``mixed3`` — three guests running DayTrader, SPECjEnterprise 2010 and
  TPC-W in the same WAS version (Figs. 3(b), 5(b)); the SPECj guest has
  1.25 GB of memory (Table II);
* ``tuscany3`` — three guests each running a standalone Tuscany server
  with the bigbank demo (Figs. 3(c), 5(c)).

A fourth, ``specj3``, is Fig. 8's footprint testbed: three 1.25 GB
SPECjEnterprise guests with the gencon heap of §V.C.  Two more serve
the ablations: ``specj3-optthruput`` (the same guests under the default
GC) and ``specjbb3`` (SPECjbb in SPECj-sized guests).

Each runs either without class sharing (the baseline) or with the paper's
shared-copy cache deployment.  Every experiment family is a grid of
``(measure, spec)`` cells: :func:`testbed_for` is the only place a
:class:`ScenarioSpec` becomes a testbed, and :func:`run_grid` the only
cache-and-fan-out path.  :func:`run` is the breakdown figures' measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.config import (
    INTEL_GUEST_1G,
    INTEL_GUEST_SPECJ,
    SPECJ_JVM_GENCON,
    Benchmark,
    ScenarioSpec,
)
from repro.core.accounting import OwnerAccounting
from repro.core.breakdown import JavaBreakdown, VmBreakdown
from repro.core.dump import CollectionReport
from repro.core.validate import ValidationReport
from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    scale_workload,
)
from repro.core.preload import CacheDeployment
from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner, WorkUnit
from repro.exec.stats import GLOBAL_RUNNER_STATS
from repro.ksm.stats import KsmStats
from repro.workloads.base import Workload, build_workload

#: The breakdown scenarios (the CLI's choices).
SCENARIOS = ("daytrader4", "mixed3", "tuscany3")

_GUEST_1G = INTEL_GUEST_1G.memory_bytes
_GUEST_SPECJ = INTEL_GUEST_SPECJ.memory_bytes

#: Scenario -> per guest: (benchmark, JVM settings override, memory).
#: The last two rows are ablation testbeds: SPECjEnterprise under the
#: default optthruput GC (A4) and SPECjbb (A10) in SPECj-sized guests.
_GUEST_TABLE = {
    "daytrader4": ((Benchmark.DAYTRADER, None, _GUEST_1G),) * 4,
    "mixed3": (
        (Benchmark.DAYTRADER, None, _GUEST_1G),
        (Benchmark.SPECJENTERPRISE, None, _GUEST_SPECJ),
        (Benchmark.TPCW, None, _GUEST_1G),
    ),
    "tuscany3": ((Benchmark.TUSCANY_BIGBANK, None, _GUEST_1G),) * 3,
    "specj3": (
        (Benchmark.SPECJENTERPRISE, SPECJ_JVM_GENCON, _GUEST_SPECJ),
    ) * 3,
    "specj3-optthruput": (
        (Benchmark.SPECJENTERPRISE, None, _GUEST_SPECJ),
    ) * 3,
    "specjbb3": ((Benchmark.SPECJBB, None, _GUEST_SPECJ),) * 3,
}


@dataclass
class ScenarioResult:
    """Output of one breakdown scenario run: the reduced breakdowns and
    reports, never the dump (it is cached and crosses process
    boundaries; :meth:`KvmTestbed.measure` hands out the dump)."""

    scenario: str
    deployment: CacheDeployment
    vm_breakdown: VmBreakdown
    java_breakdown: JavaBreakdown
    accounting: OwnerAccounting
    ksm_stats: KsmStats
    collection_report: Optional[CollectionReport] = None
    validation_report: Optional[ValidationReport] = None


def _guest_specs(spec: ScenarioSpec) -> List[GuestSpec]:
    """The guests of ``spec``; guests running one workload share it."""
    table = _GUEST_TABLE.get(spec.scenario)
    if table is None:
        raise ValueError(
            f"unknown scenario {spec.scenario!r}; "
            f"choose one of {tuple(_GUEST_TABLE)}"
        )
    count = len(table) if spec.guests is None else spec.guests
    workloads = {}
    guests = []
    for index in range(count):
        benchmark, jvm_config, memory = table[index % len(table)]
        workload = workloads.get((benchmark, jvm_config))
        if workload is None:
            workload = build_workload(benchmark)
            if jvm_config is not None:
                workload = Workload(
                    workload.profile, jvm_config, workload.driver_config
                )
            workload = scale_workload(workload, spec.scale)
            workloads[(benchmark, jvm_config)] = workload
        guests.append(GuestSpec(
            f"vm{index + 1}", max(1, int(memory * spec.scale)), workload
        ))
    return guests


def testbed_for(spec: ScenarioSpec, profiler=None) -> KvmTestbed:
    """The (unbuilt) testbed a spec describes: the only constructor of
    a :class:`KvmTestbed`.

    ``spec.scale`` < 1 shrinks every byte quantity proportionally (for
    tests); the figures run at scale 1.0, the paper's actual sizes.
    ``host_ram_fraction`` then undersizes the host
    (:func:`repro.core.experiments.testbed.sizes_for` holds both
    rules).  ``profiler`` (a :class:`repro.perf.PhaseProfiler`)
    accumulates per-phase wall/CPU cost.
    """
    return KvmTestbed(spec, _guest_specs(spec), profiler=profiler)


def run(spec: ScenarioSpec, profiler=None) -> ScenarioResult:
    """Build, run and analyse the scenario a spec describes: the
    breakdown figures' measure.

    With a fault plan, collection runs in resilient mode and the result
    carries the collection and validation reports.  Profiled runs
    (``profiler`` set, see :func:`testbed_for`) should bypass the cache.
    """
    result = testbed_for(spec, profiler=profiler).measure(faults=spec.faults)
    return ScenarioResult(
        scenario=spec.scenario,
        deployment=spec.resolved_deployment,
        vm_breakdown=result.vm_breakdown,
        java_breakdown=result.java_breakdown,
        accounting=result.accounting,
        ksm_stats=result.ksm_stats,
        collection_report=result.dump.collection,
        validation_report=result.validation,
    )


#: One experiment cell: a module-level measure function of one spec
#: (picklable, so pool workers can run it) and the spec it measures.
Cell = Tuple[Callable[[ScenarioSpec], Any], ScenarioSpec]


def run_grid(
    cells: Sequence[Cell],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[Any]:
    """Measure every ``(measure, spec)`` cell; results in cell order.

    Each cell is cached under ``cache.key(measure, *spec.cache_parts())``,
    so two measures over one spec never share an entry.  The parent
    resolves the hits, fans the misses out over ``jobs`` worker
    processes and stores their results itself, so the cache statistics
    live in one process at any worker count.  Measures reduce inside
    the worker, so only a small result crosses the process boundary.
    Results are identical with any ``jobs`` and a cold or warm cache.
    """
    results: List[Any] = [None] * len(cells)
    keys = {}
    missing = []
    units = []
    caching = cache is not None and cache.enabled
    for index, (measure, spec) in enumerate(cells):
        if caching:
            keys[index] = cache.key(measure, *spec.cache_parts())
            value, hit = cache.get(keys[index])
            if hit:
                results[index] = value
                continue
        missing.append(index)
        units.append(WorkUnit(
            measure, (spec,), label=f"{measure.__name__}:{spec.scenario}"
        ))
    if units:
        runner = ParallelRunner(jobs=jobs, stats=GLOBAL_RUNNER_STATS)
        for index, value in zip(missing, runner.map(units)):
            if caching:
                cache.put(keys[index], value)
            results[index] = value
    return results


def run_cached(
    spec: ScenarioSpec, cache: Optional[ResultCache] = None
) -> ScenarioResult:
    """:func:`run` as a one-cell grid, through the result cache.

    With a cache, repeated invocations — and cross-figure duplicates
    such as Fig. 2 / Fig. 3(a), the identical ``daytrader4`` run —
    become near-instant hits.
    """
    return run_grid([(run, spec)], cache=cache)[0]
