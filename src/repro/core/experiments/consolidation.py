"""The consolidation experiments (§V.C, Figs. 7–8).

How many guest VMs can one 6 GB host run with acceptable performance?
The paper sweeps the VM count for DayTrader (1–9 VMs, open client load)
and SPECjEnterprise 2010 (5–8 VMs, injection rate 15, gencon GC) and shows
the class-preloading deployment buys **one extra VM** before the paging
cliff.

The sweep runs in two stages:

1. **Footprint measurement** (page level): a small multi-guest testbed is
   built and measured exactly like the breakdown figures, yielding ``R``
   (one VM's mapped footprint) and ``S`` (the TPS saving of one
   non-primary VM) for the chosen deployment.

2. **Residency/throughput model**: ``demand(N) = host_kernel + N·R −
   (N−1)·S`` feeds the paging-penalty model of :mod:`repro.perf`, which
   yields the figure's throughput (or EjOPS score) per VM count.

Running nine full 1 GB guests page-by-page for every point would measure
the same two numbers nine times; the two-stage split is exact for the
demand arithmetic because owner-oriented accounting is linear in the
number of non-primary VMs (each contributes ``R − S``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import (
    DEFAULT_BACKEND,
    DEFAULT_SCAN_ENGINE,
    SPECJ_JVM_GENCON,
    Benchmark,
)
from repro.core.columnar.backend import resolve_backend
from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    TestbedConfig,
    scale_kernel_profile,
    scale_workload,
)
from repro.core.preload import CacheDeployment
from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner, WorkUnit
from repro.exec.stats import GLOBAL_RUNNER_STATS
from repro.perf.paging import PagingModel
from repro.perf.throughput import DayTraderThroughputModel, SpecjScoreModel
from repro.units import GiB, MiB
from repro.workloads.base import Workload, build_workload


@dataclass
class Footprint:
    """Measured per-VM residency numbers (at full scale, in bytes)."""

    per_vm_resident_bytes: float  # R
    per_nonprimary_saving_bytes: float  # S

    @property
    def marginal_vm_bytes(self) -> float:
        """Host memory each additional VM really costs (R − S)."""
        return self.per_vm_resident_bytes - self.per_nonprimary_saving_bytes


def measure_footprint(
    workload: Workload,
    deployment: CacheDeployment,
    guest_memory_bytes: int,
    guests: int = 3,
    scale: float = 1.0,
    measurement_ticks: int = 4,
    seed: int = 20130421,
    faults=None,
    scan_policy: str = "full",
    scan_engine: str = DEFAULT_SCAN_ENGINE,
    backend: str = DEFAULT_BACKEND,
) -> Footprint:
    """Stage 1: measure R and S from a small page-level testbed.

    ``faults`` (a :class:`repro.faults.FaultPlan`) switches collection
    to resilient mode: quarantined guests drop out and R/S come from the
    surviving VMs only.  ``scan_policy``, ``scan_engine`` and
    ``backend`` select the KSM scan policy, the scan engine and the
    dump-analysis backend of the footprint testbed.
    """
    scaled = scale_workload(workload, scale)
    specs = [
        GuestSpec(f"vm{i + 1}", max(1, int(guest_memory_bytes * scale)), scaled)
        for i in range(guests)
    ]
    config = TestbedConfig(
        deployment=deployment,
        kernel_profile=scale_kernel_profile(scale),
        measurement_ticks=measurement_ticks,
        seed=seed,
        scale=scale,
        backend=backend,
    )
    config.ksm = dataclasses.replace(
        config.ksm, scan_policy=scan_policy, scan_engine=scan_engine
    )
    if scale < 1.0:
        config.host_ram_bytes = max(
            int(config.host_ram_bytes * scale), 64 * MiB
        )
        config.host_kernel_bytes = int(config.host_kernel_bytes * scale)
        config.qemu_overhead_bytes = max(
            1 << 16, int(config.qemu_overhead_bytes * scale)
        )
    testbed = KvmTestbed(specs, config)
    result = testbed.measure(faults=faults)
    rows = result.vm_breakdown.rows
    if faults is not None:
        survivors = [row for row in rows if row.total_usage() > 0]
        rows = survivors or rows
    # R: the mapped footprint of one VM (usage + shared are both "mapped").
    mapped = [row.total_usage() + row.total_shared() for row in rows]
    resident = sum(mapped) / len(mapped)
    # S: what a non-primary VM gets for free.  The owner VM's shared tally
    # is near zero; average the others.
    shares = sorted(row.total_shared() for row in rows)
    non_primary = shares[1:] if len(shares) > 1 else shares
    saving = sum(non_primary) / len(non_primary)
    if scale < 1.0:
        resident /= scale
        saving /= scale
    return Footprint(resident, saving)


@dataclass
class ConsolidationPoint:
    """One bar of Fig. 7 / Fig. 8."""

    n_vms: int
    demand_bytes: float
    penalty: float
    metric: float  # req/s (Fig. 7) or EjOPS score (Fig. 8)
    sla_met: bool = True


@dataclass
class ConsolidationResult:
    """The full sweep for one benchmark."""

    benchmark: Benchmark
    vm_counts: List[int]
    footprints: Dict[str, Footprint]
    points: Dict[str, List[ConsolidationPoint]] = field(default_factory=dict)

    def series(self, label: str) -> List[float]:
        return [point.metric for point in self.points[label]]

    def max_acceptable_vms(
        self, label: str, acceptable_fraction: float = 0.8
    ) -> int:
        """Largest VM count whose penalty stays above the threshold."""
        best = 0
        for point in self.points[label]:
            if point.penalty >= acceptable_fraction:
                best = max(best, point.n_vms)
        return best


_DEPLOYMENTS = (
    ("default", CacheDeployment.NONE),
    ("preloaded", CacheDeployment.SHARED_COPY),
)


@dataclass(frozen=True)
class FootprintRequest:
    """One stage-1 footprint measurement: work unit and cache key.

    Like :class:`~repro.core.experiments.scenarios.ScenarioRequest`, the
    request is self-contained (everything the measurement depends on,
    seed included), so it can be shipped to a pool worker and used as a
    content-addressed fingerprint interchangeably.
    """

    workload: Workload
    deployment: CacheDeployment
    guest_memory_bytes: int
    guests: int = 3
    scale: float = 1.0
    measurement_ticks: int = 4
    seed: int = 20130421
    scan_policy: str = "full"
    scan_engine: str = DEFAULT_SCAN_ENGINE
    backend: str = DEFAULT_BACKEND
    faults: Optional[object] = None

    def cache_parts(self):
        """Input parts for :meth:`repro.exec.ResultCache.key` (the
        backend under its resolved name)."""
        return (
            "footprint",
            dataclasses.replace(self, backend=resolve_backend(self.backend)),
        )


def _measure_footprint_request(request: FootprintRequest) -> Footprint:
    """Module-level (picklable) entry point for pool workers."""
    return measure_footprint(
        request.workload,
        request.deployment,
        request.guest_memory_bytes,
        guests=request.guests,
        scale=request.scale,
        measurement_ticks=request.measurement_ticks,
        seed=request.seed,
        faults=request.faults,
        scan_policy=request.scan_policy,
        scan_engine=request.scan_engine,
        backend=request.backend,
    )


def _measure_footprints(
    requests: Sequence[Tuple[str, FootprintRequest]],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Footprint]:
    """Cache-aware fan-out of the stage-1 footprint measurements.

    The parent process resolves cache hits first and only ships misses
    to the pool; it also stores the fresh results itself, so hit/miss/
    store statistics live in one process regardless of worker count.
    """
    footprints: Dict[str, Footprint] = {}
    keys: Dict[str, str] = {}
    missing: List[Tuple[str, FootprintRequest]] = []
    caching = cache is not None and cache.enabled
    for label, request in requests:
        if caching:
            keys[label] = cache.key(*request.cache_parts())
            value, hit = cache.get(keys[label])
            if hit:
                footprints[label] = value
                continue
        missing.append((label, request))
    if missing:
        if runner is None:
            runner = ParallelRunner(jobs=jobs, stats=GLOBAL_RUNNER_STATS)
        units = [
            WorkUnit(
                _measure_footprint_request,
                (request,),
                label=f"footprint:{label}:{request.deployment.value}",
            )
            for label, request in missing
        ]
        for (label, _), footprint in zip(missing, runner.map(units)):
            if caching:
                cache.put(keys[label], footprint)
            footprints[label] = footprint
    return footprints


def _sweep(
    workload: Workload,
    guest_memory_bytes: int,
    vm_counts: Sequence[int],
    metric_fn,
    paging: PagingModel,
    footprint_scale: float,
    footprint_guests: int,
    seed: int,
    faults=None,
    scan_policy: str = "full",
    scan_engine: str = DEFAULT_SCAN_ENGINE,
    backend: str = DEFAULT_BACKEND,
    measurement_ticks: int = 4,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    runner: Optional[ParallelRunner] = None,
) -> ConsolidationResult:
    result = ConsolidationResult(
        benchmark=workload.benchmark,
        vm_counts=list(vm_counts),
        footprints={},
    )
    # Stage 1 dominates the sweep's cost and its two deployments are
    # independent, so they fan out (and cache) as work units.  Stage 2
    # below is closed-form arithmetic per point — cheaper than shipping
    # a work unit — so the points stay inline.
    requests = [
        (
            label,
            FootprintRequest(
                workload=workload,
                deployment=deployment,
                guest_memory_bytes=guest_memory_bytes,
                guests=footprint_guests,
                scale=footprint_scale,
                measurement_ticks=measurement_ticks,
                seed=seed,
                scan_policy=scan_policy,
                scan_engine=scan_engine,
                backend=backend,
                faults=faults,
            ),
        )
        for label, deployment in _DEPLOYMENTS
    ]
    footprints = _measure_footprints(
        requests, jobs=jobs, cache=cache, runner=runner
    )
    for label, deployment in _DEPLOYMENTS:
        footprint = footprints[label]
        result.footprints[label] = footprint
        points = []
        for n_vms in vm_counts:
            demand = paging.demand_bytes(
                n_vms,
                footprint.per_vm_resident_bytes,
                footprint.per_nonprimary_saving_bytes,
            )
            penalty = paging.penalty(demand, n_vms, guest_memory_bytes)
            metric, sla = metric_fn(n_vms, penalty)
            points.append(
                ConsolidationPoint(n_vms, demand, penalty, metric, sla)
            )
        result.points[label] = points
    return result


def run_daytrader_consolidation(
    vm_counts: Sequence[int] = tuple(range(1, 10)),
    footprint_scale: float = 1.0,
    footprint_guests: int = 3,
    host_ram_bytes: int = 6 * GiB,
    seed: int = 20130421,
    faults=None,
    scan_policy: str = "full",
    scan_engine: str = DEFAULT_SCAN_ENGINE,
    backend: str = DEFAULT_BACKEND,
    measurement_ticks: int = 4,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> ConsolidationResult:
    """Fig. 7: DayTrader throughput versus the number of guest VMs.

    ``jobs`` fans the independent footprint measurements out over
    worker processes (default: ``REPRO_JOBS`` or serial); ``cache``
    reuses previously measured footprints with matching fingerprints.
    Both are transparent: the sweep's numbers are identical with any
    worker count and with a cold or warm cache.
    """
    workload = build_workload(Benchmark.DAYTRADER)
    paging = PagingModel(capacity_bytes=host_ram_bytes)
    model = DayTraderThroughputModel(
        base_per_vm=workload.profile.base_throughput_per_vm
    )

    def metric(n_vms: int, penalty: float):
        return model.total_throughput(n_vms, penalty), penalty >= 0.8

    return _sweep(
        workload,
        1 * GiB,
        vm_counts,
        metric,
        paging,
        footprint_scale,
        footprint_guests,
        seed,
        faults=faults,
        scan_policy=scan_policy,
        scan_engine=scan_engine,
        backend=backend,
        measurement_ticks=measurement_ticks,
        jobs=jobs,
        cache=cache,
    )


def run_specj_consolidation(
    vm_counts: Sequence[int] = (5, 6, 7, 8),
    footprint_scale: float = 1.0,
    footprint_guests: int = 3,
    host_ram_bytes: int = 6 * GiB,
    seed: int = 20130421,
    faults=None,
    scan_policy: str = "full",
    scan_engine: str = DEFAULT_SCAN_ENGINE,
    backend: str = DEFAULT_BACKEND,
    measurement_ticks: int = 4,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> ConsolidationResult:
    """Fig. 8: SPECjEnterprise 2010 score at injection rate 15.

    Uses the gencon GC policy with a 530 MB nursery and 200 MB tenured
    area, as §V.C specifies.  ``jobs`` and ``cache`` behave exactly as
    in :func:`run_daytrader_consolidation`.
    """
    base = build_workload(Benchmark.SPECJENTERPRISE)
    workload = Workload(base.profile, SPECJ_JVM_GENCON, base.driver_config)
    paging = PagingModel(capacity_bytes=host_ram_bytes)
    model = SpecjScoreModel(ejops_per_vm=workload.profile.ejops_per_vm)

    def metric(n_vms: int, penalty: float):
        return model.score(penalty), model.sla_met(penalty)

    return _sweep(
        workload,
        int(1.25 * GiB),
        vm_counts,
        metric,
        paging,
        footprint_scale,
        footprint_guests,
        seed,
        faults=faults,
        scan_policy=scan_policy,
        scan_engine=scan_engine,
        backend=backend,
        measurement_ticks=measurement_ticks,
        jobs=jobs,
        cache=cache,
    )
