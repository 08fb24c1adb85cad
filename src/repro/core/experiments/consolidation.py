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

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.config import Benchmark, KsmSettings, ScenarioSpec
from repro.core.experiments.scenarios import run_grid, testbed_for
from repro.core.preload import CacheDeployment
from repro.exec.cache import ResultCache
from repro.perf.paging import PagingModel
from repro.perf.throughput import DayTraderThroughputModel, SpecjScoreModel
from repro.units import GiB
from repro.workloads.base import build_workload


@dataclass
class Footprint:
    """Measured per-VM residency numbers (at full scale, in bytes)."""

    per_vm_resident_bytes: float  # R
    per_nonprimary_saving_bytes: float  # S

    @property
    def marginal_vm_bytes(self) -> float:
        """Host memory each additional VM really costs (R − S)."""
        return self.per_vm_resident_bytes - self.per_nonprimary_saving_bytes


def footprint(spec: ScenarioSpec) -> Footprint:
    """Stage 1: measure R and S from a small page-level testbed.

    The measure of the footprint cells.  With a fault plan
    (``spec.faults``) collection turns resilient: quarantined guests
    drop out and R/S come from the surviving VMs only.
    """
    result = testbed_for(spec).measure(faults=spec.faults)
    rows = result.vm_breakdown.rows
    if spec.faults is not None:
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
    if spec.scale < 1.0:
        resident /= spec.scale
        saving /= spec.scale
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


def _sweep(
    spec: ScenarioSpec,
    benchmark: Benchmark,
    guest_memory_bytes: int,
    vm_counts: Sequence[int],
    metric_fn,
    paging: PagingModel,
    jobs: Optional[int],
    cache: Optional[ResultCache],
) -> ConsolidationResult:
    """Both deployments' footprints of ``spec``, then the sweep points."""
    result = ConsolidationResult(
        benchmark=benchmark,
        vm_counts=list(vm_counts),
        footprints={},
    )
    # Stage 1 dominates the sweep's cost and its two deployments are
    # independent, so they fan out (and cache) as grid cells.  Stage 2
    # below is closed-form arithmetic per point — cheaper than shipping
    # a work unit — so the points stay inline.
    cells = [
        (footprint, replace(spec, deployment=deployment))
        for _, deployment in _DEPLOYMENTS
    ]
    footprints = run_grid(cells, jobs=jobs, cache=cache)
    for (label, _), measured in zip(_DEPLOYMENTS, footprints):
        result.footprints[label] = measured
        points = []
        for n_vms in vm_counts:
            demand = paging.demand_bytes(
                n_vms,
                measured.per_vm_resident_bytes,
                measured.per_nonprimary_saving_bytes,
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

    spec = ScenarioSpec(
        "daytrader4",
        scale=footprint_scale,
        measurement_ticks=measurement_ticks,
        seed=seed,
        ksm=KsmSettings(scan_policy=scan_policy),
        faults=faults,
        guests=footprint_guests,
    )
    return _sweep(
        spec, workload.benchmark, 1 * GiB, vm_counts, metric, paging,
        jobs, cache,
    )


def run_specj_consolidation(
    vm_counts: Sequence[int] = (5, 6, 7, 8),
    footprint_scale: float = 1.0,
    footprint_guests: int = 3,
    host_ram_bytes: int = 6 * GiB,
    seed: int = 20130421,
    faults=None,
    scan_policy: str = "full",
    measurement_ticks: int = 4,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> ConsolidationResult:
    """Fig. 8: SPECjEnterprise 2010 score at injection rate 15.

    Uses the gencon GC policy with a 530 MB nursery and 200 MB tenured
    area, as §V.C specifies.  ``jobs`` and ``cache`` behave exactly as
    in :func:`run_daytrader_consolidation`.
    """
    workload = build_workload(Benchmark.SPECJENTERPRISE)
    paging = PagingModel(capacity_bytes=host_ram_bytes)
    model = SpecjScoreModel(ejops_per_vm=workload.profile.ejops_per_vm)

    def metric(n_vms: int, penalty: float):
        return model.score(penalty), model.sla_met(penalty)

    spec = ScenarioSpec(
        "specj3",
        scale=footprint_scale,
        measurement_ticks=measurement_ticks,
        seed=seed,
        ksm=KsmSettings(scan_policy=scan_policy),
        faults=faults,
        guests=footprint_guests,
    )
    return _sweep(
        spec, workload.benchmark, int(1.25 * GiB), vm_counts, metric,
        paging, jobs, cache,
    )
