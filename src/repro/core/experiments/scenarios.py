"""The paper's breakdown scenarios (Figs. 2–5).

Three guest-VM arrangements appear in the paper:

* ``daytrader4`` — four 1 GB guests, each running WAS + DayTrader
  (Figs. 2, 3(a), 4, 5(a));
* ``mixed3`` — three guests running DayTrader, SPECjEnterprise 2010 and
  TPC-W in the same WAS version (Figs. 3(b), 5(b)); the SPECj guest has
  1.25 GB of memory (Table II);
* ``tuscany3`` — three guests each running a standalone Tuscany server
  with the bigbank demo (Figs. 3(c), 5(c)).

Each runs either without class sharing (the baseline) or with the paper's
shared-copy cache deployment; the same driver serves the "before" and
"after" figures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.config import (
    DEFAULT_BACKEND,
    DEFAULT_SCAN_ENGINE,
    Benchmark,
    HugePageSettings,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
)
from repro.core.accounting import OwnerAccounting
from repro.core.breakdown import JavaBreakdown, VmBreakdown
from repro.core.columnar.backend import resolve_backend
from repro.core.dump import CollectionReport, SystemDump
from repro.core.validate import ValidationReport
from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    MeasurementResult,
    TestbedConfig,
    scale_kernel_profile,
    scale_workload,
)
from repro.core.preload import CacheDeployment
from repro.exec.cache import ResultCache
from repro.faults.plan import FaultPlan
from repro.ksm.stats import KsmStats
from repro.units import GiB
from repro.workloads.base import build_workload

SCENARIOS = ("daytrader4", "mixed3", "tuscany3")


@dataclass
class ScenarioResult:
    """Output of one breakdown scenario run."""

    scenario: str
    deployment: CacheDeployment
    vm_breakdown: VmBreakdown
    java_breakdown: JavaBreakdown
    accounting: OwnerAccounting
    ksm_stats: KsmStats
    dump: Optional[SystemDump] = None
    collection_report: Optional[CollectionReport] = None
    validation_report: Optional[ValidationReport] = None


def _guest_specs(scenario: str, scale: float) -> List[GuestSpec]:
    def guest(name: str, benchmark: Benchmark, memory: int) -> GuestSpec:
        workload = scale_workload(build_workload(benchmark), scale)
        return GuestSpec(name, max(1, int(memory * scale)), workload)

    if scenario == "daytrader4":
        return [
            guest(f"vm{i}", Benchmark.DAYTRADER, 1 * GiB) for i in range(1, 5)
        ]
    if scenario == "mixed3":
        return [
            guest("vm1", Benchmark.DAYTRADER, 1 * GiB),
            guest("vm2", Benchmark.SPECJENTERPRISE, int(1.25 * GiB)),
            guest("vm3", Benchmark.TPCW, 1 * GiB),
        ]
    if scenario == "tuscany3":
        return [
            guest(f"vm{i}", Benchmark.TUSCANY_BIGBANK, 1 * GiB)
            for i in range(1, 4)
        ]
    raise ValueError(
        f"unknown scenario {scenario!r}; choose one of {SCENARIOS}"
    )


def run(spec: ScenarioSpec, profiler=None) -> ScenarioResult:
    """Build, run and analyse the scenario a :class:`ScenarioSpec`
    describes — the single entry point behind every ``run_scenario*``
    shim and CLI subcommand.

    ``spec.scale`` < 1 shrinks every byte quantity proportionally (for
    tests); the figures run at scale 1.0, the paper's actual sizes.
    With a fault plan, collection runs in resilient mode and the result
    carries the collection and validation reports.  ``profiler`` (a
    :class:`repro.perf.PhaseProfiler`) accumulates per-phase wall/CPU
    cost; profiled runs should bypass the result cache.
    """
    deployment = spec.resolved_deployment
    specs = _guest_specs(spec.scenario, spec.scale)
    config = TestbedConfig(
        deployment=deployment,
        kernel_profile=scale_kernel_profile(spec.scale),
        seed=spec.seed,
        scale=spec.scale,
        backend=spec.backend,
        ksm=spec.ksm,
        tiering=spec.tiering if spec.tiering.mode != "off" else None,
        hugepages=spec.hugepages if spec.hugepages.enabled else None,
    )
    if spec.scale < 1.0:
        config.host_ram_bytes = max(
            int(config.host_ram_bytes * spec.scale), 64 * 1024 * 1024
        )
        config.host_kernel_bytes = int(
            config.host_kernel_bytes * spec.scale
        )
        config.qemu_overhead_bytes = max(
            1 << 16, int(config.qemu_overhead_bytes * spec.scale)
        )
    if spec.measurement_ticks is not None:
        config.measurement_ticks = spec.measurement_ticks
    testbed = KvmTestbed(specs, config, profiler=profiler)
    result = testbed.measure(faults=spec.faults)
    return ScenarioResult(
        scenario=spec.scenario,
        deployment=deployment,
        vm_breakdown=result.vm_breakdown,
        java_breakdown=result.java_breakdown,
        accounting=result.accounting,
        ksm_stats=result.ksm_stats,
        dump=result.dump,
        collection_report=result.dump.collection,
        validation_report=result.validation,
    )


def run_cached(
    spec: ScenarioSpec, cache: Optional[ResultCache] = None
) -> ScenarioResult:
    """Run a spec through the content-addressed result cache.

    With no ``cache`` (or a disabled one) this is plain :func:`run`;
    with one, repeated invocations — and cross-figure duplicates such
    as Fig. 2 / Fig. 3(a), the identical ``daytrader4`` run — become
    near-instant hits.  Legacy-representable specs fingerprint exactly
    like their historical :class:`ScenarioRequest`, so pre-existing
    cache entries keep hitting.
    """
    if cache is None or not cache.enabled:
        return run(spec)
    return cache.get_or_compute(spec.cache_parts(), lambda: run(spec))


def _warn_deprecated(name: str) -> None:
    warnings.warn(
        f"{name} is deprecated; build a repro.config.ScenarioSpec and "
        "call repro.core.experiments.scenarios.run/run_cached instead",
        DeprecationWarning,
        stacklevel=3,
    )


def run_scenario(
    scenario: str,
    deployment: CacheDeployment = CacheDeployment.NONE,
    scale: float = 1.0,
    measurement_ticks: Optional[int] = None,
    seed: int = 20130421,
    faults: Optional[FaultPlan] = None,
    scan_policy: str = "full",
    scan_engine: str = DEFAULT_SCAN_ENGINE,
    tiering: str = "off",
    backend: str = DEFAULT_BACKEND,
    profiler=None,
) -> ScenarioResult:
    """Deprecated shim over :func:`run` (the historical signature).

    Builds the equivalent :class:`ScenarioSpec` and runs it; results
    and cache fingerprints are identical to the pre-spec API.
    """
    _warn_deprecated("run_scenario")
    spec = ScenarioSpec(
        scenario=scenario,
        deployment=deployment,
        scale=scale,
        measurement_ticks=measurement_ticks,
        seed=seed,
        ksm=KsmSettings(scan_policy=scan_policy, scan_engine=scan_engine),
        tiering=TieringSettings(mode=tiering),
        hugepages=HugePageSettings(),
        backend=backend,
        faults=faults,
    )
    return run(spec, profiler=profiler)


@dataclass(frozen=True)
class ScenarioRequest:
    """Everything that determines one breakdown scenario run.

    This is both the picklable work unit the parallel runner ships to
    workers and the complete cache fingerprint: two requests that
    compare equal always produce byte-identical results, and any field
    change (scale, ticks, seed, scan policy, fault plan) changes the
    fingerprint, so a stale cached result can never be served.
    """

    scenario: str
    deployment: CacheDeployment = CacheDeployment.NONE
    scale: float = 1.0
    measurement_ticks: Optional[int] = None
    seed: int = 20130421
    scan_policy: str = "full"
    #: Scanner implementation; like ``backend``, part of the cache
    #: fingerprint so engine runs are never mixed even though the
    #: engines produce identical results.
    scan_engine: str = DEFAULT_SCAN_ENGINE
    faults: Optional[FaultPlan] = None
    tiering: str = "off"
    #: Dump-analysis backend.  Part of the cache fingerprint, under its
    #: resolved name: results computed by different backends are never
    #: mixed in the cache, even though they should be identical (the
    #: equivalence suite asserts it; the cache does not rely on it).
    backend: str = DEFAULT_BACKEND

    def cache_parts(self):
        """Input parts for :meth:`repro.exec.ResultCache.key`."""
        return (
            "scenario-run",
            replace(self, backend=resolve_backend(self.backend)),
        )

    def to_spec(self) -> ScenarioSpec:
        """The equivalent :class:`ScenarioSpec` (same fingerprint)."""
        return ScenarioSpec(
            scenario=self.scenario,
            deployment=self.deployment,
            scale=self.scale,
            measurement_ticks=self.measurement_ticks,
            seed=self.seed,
            ksm=KsmSettings(
                scan_policy=self.scan_policy, scan_engine=self.scan_engine
            ),
            tiering=TieringSettings(mode=self.tiering),
            hugepages=HugePageSettings(),
            backend=self.backend,
            faults=self.faults,
        )


def run_scenario_request(request: ScenarioRequest) -> ScenarioResult:
    """Deprecated shim: run the scenario a legacy request describes."""
    _warn_deprecated("run_scenario_request")
    return run(request.to_spec())


def run_scenario_cached(
    request: ScenarioRequest, cache: Optional[ResultCache] = None
) -> ScenarioResult:
    """Deprecated shim over :func:`run_cached` for legacy requests.

    The converted spec fingerprints exactly like the request did, so
    cached results from the pre-spec API keep hitting.
    """
    _warn_deprecated("run_scenario_cached")
    return run_cached(request.to_spec(), cache)
