"""The huge-page/THP trade-off curve: bytes shared vs translation lost.

Transparent huge pages and transparent page sharing want opposite
things from the same physical memory: a 2 MiB mapping buys TLB reach
exactly as long as it stays intact, while KSM can only merge 4 KiB
pages — so every merge inside a huge block first *splits* the block
(split-on-KSM-merge, the Linux THP/KSM interaction).  The paper's
scenarios measure what sharing saves; this experiment prices what the
splitting costs, across three THP policies —

* ``never`` — all-4 KiB baseline (the paper's configuration);
* ``always`` — every eligible aligned range is collapsed, so KSM must
  split its way through the guest heap;
* ``khugepaged`` — only working-set-hot ranges collapse, so splits
  concentrate where sharing and heat overlap.

Because huge blocks are a pure grouping overlay (subpages keep their
4 KiB tokens), the *savings* axis is policy-invariant — KSM always wins
the fight by splitting — and the curve's real axes are the huge bytes
sacrificed to reach those savings and the translation benefit retained
by whatever coverage survives.  Throughput composes the
:class:`~repro.perf.tlb.TlbModel` multiplier with the scanner CPU cost,
and the pressure point adds the :class:`~repro.perf.paging.PagingModel`
penalty on a deliberately undersized host, the same composition the
pressure family uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import HugePageSettings, ScenarioSpec, THP_POLICIES
from repro.core.experiments.scenarios import (
    SCENARIOS,
    run,
    run_grid,
    testbed_for,
)
from repro.exec.cache import ResultCache
from repro.perf.paging import PagingModel
from repro.perf.tlb import TlbModel
from repro.units import DEFAULT_PAGE_SIZE

__all__ = [
    "FLEET_HOSTS",
    "HugePagePoint",
    "HugePagePressurePoint",
    "HugePageCurveResult",
    "curve_point",
    "hugepage_pressure",
    "run_hugepage_tradeoff",
]

#: Hosts in the analytic fleet estimate.
FLEET_HOSTS = 24


@dataclass
class HugePagePoint:
    """One (scenario, policy) point of the trade-off curve."""

    scenario: str
    policy: str
    block_pages: int
    saved_bytes: int
    merges: int
    thp_splits: int
    #: Huge-backed bytes given up so those merges could happen.
    huge_bytes_sacrificed: int
    intact_blocks: int
    huge_pages: int
    guest_pages: int
    #: Fraction of guest pages still huge-backed after the scan.
    coverage: float
    tlb_multiplier: float
    ksm_cpu_fraction: float
    #: ``tlb_multiplier * (1 - ksm_cpu_fraction)`` — translation won
    #: net of the scan cost paid to win the savings.
    throughput_fraction: float
    validation_codes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "block_pages": self.block_pages,
            "saved_bytes": self.saved_bytes,
            "merges": self.merges,
            "thp_splits": self.thp_splits,
            "huge_bytes_sacrificed": self.huge_bytes_sacrificed,
            "intact_blocks": self.intact_blocks,
            "huge_pages": self.huge_pages,
            "guest_pages": self.guest_pages,
            "coverage": self.coverage,
            "tlb_multiplier": self.tlb_multiplier,
            "ksm_cpu_fraction": self.ksm_cpu_fraction,
            "throughput_fraction": self.throughput_fraction,
            "validation_codes": self.validation_codes,
        }


@dataclass
class HugePagePressurePoint:
    """Measured outcome of one pressure point (bytes at run scale)."""

    policy: str
    host_ram_bytes: int
    bytes_in_use: int
    ksm_saved_bytes: int
    thp_splits: int
    coverage: float
    paging_penalty: float
    tlb_multiplier: float
    throughput_fraction: float

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "host_ram_bytes": self.host_ram_bytes,
            "bytes_in_use": self.bytes_in_use,
            "ksm_saved_bytes": self.ksm_saved_bytes,
            "thp_splits": self.thp_splits,
            "coverage": self.coverage,
            "paging_penalty": self.paging_penalty,
            "tlb_multiplier": self.tlb_multiplier,
            "throughput_fraction": self.throughput_fraction,
        }


def hugepage_pressure(spec: ScenarioSpec) -> HugePagePressurePoint:
    """Run one pressure point end to end: the measure of the pressure
    cells.

    Same undersizing as the pressure family's KSM arm (the spec's
    ``host_ram_fraction``), with the spec's THP policy layered on top;
    the paging penalty and the TLB multiplier compose into the point's
    throughput.
    """
    testbed = testbed_for(spec)
    testbed.build()
    testbed.run()
    config = testbed.config
    host = testbed.host
    physmem = host.physmem

    guest_pages = sum(
        kernel.vm.guest_npages for kernel in testbed.kernels.values()
    )
    coverage = (
        physmem.huge_backed_pages / guest_pages if guest_pages else 0.0
    )
    paging = PagingModel(
        capacity_bytes=config.host_ram_bytes,
        host_kernel_bytes=config.host_kernel_bytes,
    )
    guests = testbed.specs
    paging_penalty = paging.penalty(
        float(physmem.bytes_in_use), len(guests), guests[0].memory_bytes
    )
    tlb_multiplier = TlbModel().throughput_multiplier(coverage)
    return HugePagePressurePoint(
        policy=spec.hugepages.policy,
        host_ram_bytes=config.host_ram_bytes,
        bytes_in_use=physmem.bytes_in_use,
        ksm_saved_bytes=host.ksm.saved_bytes,
        thp_splits=host.ksm.stats.thp_splits,
        coverage=coverage,
        paging_penalty=paging_penalty,
        tlb_multiplier=tlb_multiplier,
        throughput_fraction=paging_penalty * tlb_multiplier,
    )


@dataclass
class HugePageCurveResult:
    """The whole trade-off curve plus the fleet extrapolation."""

    block_pages: int
    seed: int
    scale: float = 1.0
    measurement_ticks: int = 0
    #: (scenario, policy) → curve point.
    points: Dict[Tuple[str, str], HugePagePoint] = field(
        default_factory=dict
    )
    pressure: Dict[str, HugePagePressurePoint] = field(
        default_factory=dict
    )
    #: Analytic fleet estimate per policy (see :data:`FLEET_HOSTS`).
    fleet: Dict[str, dict] = field(default_factory=dict)

    def point(self, scenario: str, policy: str) -> HugePagePoint:
        return self.points[(scenario, policy)]

    def to_dict(self) -> dict:
        """JSON-serialisable summary (the CI artifact format)."""
        return {
            "block_pages": self.block_pages,
            "seed": self.seed,
            "scale": self.scale,
            "ticks": self.measurement_ticks,
            "fleet_hosts": FLEET_HOSTS,
            "points": {
                f"{scenario}/{policy}": point.to_dict()
                for (scenario, policy), point in sorted(self.points.items())
            },
            "pressure": {
                policy: point.to_dict()
                for policy, point in sorted(self.pressure.items())
            },
            "fleet": {
                policy: row for policy, row in sorted(self.fleet.items())
            },
        }


def curve_point(spec: ScenarioSpec) -> HugePagePoint:
    """Run one (scenario, policy) cell and fold it into a point: the
    measure of the curve cells."""
    result = run(spec)
    block_pages = spec.hugepages.block_pages
    stats = result.ksm_stats
    thp = stats.extra.get("thp", {})
    guest_pages = thp.get("guest_pages", 0)
    huge_pages = thp.get("huge_pages", 0)
    coverage = huge_pages / guest_pages if guest_pages else 0.0
    tlb_multiplier = TlbModel().throughput_multiplier(coverage)
    cpu_fraction = min(1.0, stats.cpu_percent / 100.0)
    validation = result.validation_report
    return HugePagePoint(
        scenario=spec.scenario,
        policy=spec.hugepages.policy,
        block_pages=block_pages,
        saved_bytes=stats.pages_saved * DEFAULT_PAGE_SIZE,
        merges=stats.merges,
        thp_splits=stats.thp_splits,
        huge_bytes_sacrificed=(
            stats.thp_splits * block_pages * DEFAULT_PAGE_SIZE
        ),
        intact_blocks=thp.get("intact_blocks", 0),
        huge_pages=huge_pages,
        guest_pages=guest_pages,
        coverage=coverage,
        tlb_multiplier=tlb_multiplier,
        ksm_cpu_fraction=cpu_fraction,
        throughput_fraction=tlb_multiplier * (1.0 - cpu_fraction),
        validation_codes=(
            validation.codes() if validation is not None else []
        ),
    )


def run_hugepage_tradeoff(
    scale: float = 1.0,
    measurement_ticks: Optional[int] = None,
    seed: int = 20130421,
    block_pages: int = 512,
    scenarios: Sequence[str] = SCENARIOS,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> HugePageCurveResult:
    """Produce the headline trade-off curve.

    Every (scenario, THP policy) cell is one scenario run, and the
    first scenario also gets one pressure point per policy (undersized
    host, paging penalty composed in).  The cells form one grid, so
    they fan out (and cache) like the consolidation sweeps and the
    result is bit-identical with any worker count.  On top of the curve
    the result carries a purely analytic per-policy fleet estimate for
    the first scenario.
    """
    ticks = measurement_ticks if measurement_ticks is not None else 6
    cells = [
        (
            curve_point,
            ScenarioSpec(
                scenario,
                scale=scale,
                measurement_ticks=ticks,
                seed=seed,
                hugepages=HugePageSettings(policy, block_pages),
            ),
        )
        for scenario in scenarios
        for policy in THP_POLICIES
    ]
    cells += [
        (
            hugepage_pressure,
            ScenarioSpec(
                scenarios[0],
                scale=scale,
                measurement_ticks=ticks,
                seed=seed,
                hugepages=HugePageSettings(policy, block_pages),
                host_ram_fraction=0.6,
            ),
        )
        for policy in THP_POLICIES
    ]
    curve = HugePageCurveResult(
        block_pages=block_pages,
        seed=seed,
        scale=scale,
        measurement_ticks=ticks,
    )
    for (measure, _), point in zip(cells, run_grid(cells, jobs, cache)):
        if measure is curve_point:
            curve.points[(point.scenario, point.policy)] = point
        else:
            curve.pressure[point.policy] = point

    # Analytic fleet extrapolation: every host runs the first scenario
    # under the given policy; savings and sacrifices scale linearly,
    # the TLB multiplier is a per-host intensive quantity.
    for policy in THP_POLICIES:
        per_host = curve.points[(scenarios[0], policy)]
        curve.fleet[policy] = {
            "hosts": FLEET_HOSTS,
            "saved_bytes": per_host.saved_bytes * FLEET_HOSTS,
            "huge_bytes_sacrificed": (
                per_host.huge_bytes_sacrificed * FLEET_HOSTS
            ),
            "tlb_multiplier": per_host.tlb_multiplier,
            "throughput_fraction": per_host.throughput_fraction,
        }
    return curve
