"""The pressure-scenario family: TPS vs its §VI alternatives, head to head.

The paper argues that for Java workloads TPS competes with ballooning and
paging-to-RAM compression (§VI) but never runs them against each other.
This family does: the same multi-guest scenario is run on a deliberately
undersized host under four *arms* with identical seeds —

* ``ksm`` — transparent page sharing only (the paper's mechanism);
* ``compression`` — working-set-driven compression of cold pages, KSM off;
* ``balloon`` — working-set-weighted ballooning, KSM off;
* ``combined`` — KSM + cold hints + compression + ballooning together —

plus an internal ``none`` baseline that measures what the host holds when
nothing fights the pressure.  Per arm the family reports Fig.-7-style
numbers: bytes actually freed (against the baseline), bytes each
mechanism *claims* (KSM gauge, compression gauge, balloon reclaim), and a
throughput fraction priced by the :class:`~repro.perf.paging.PagingModel`
penalty composed with the :class:`~repro.perf.tiercost.TieringCostModel`
(decompress faults and balloon reclaim are not free).

With the pool bytes charged to the host (see
:func:`repro.core.validate.validate_compression`), a mechanism can no
longer claim more than it physically freed; the family checks exactly
that invariant on every arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import KsmSettings, ScenarioSpec, TieringSettings
from repro.core.experiments.scenarios import run_grid, testbed_for
from repro.core.validate import validate_compression
from repro.exec.cache import ResultCache
from repro.perf.paging import PagingModel
from repro.perf.tiercost import TieringCostModel

#: The externally meaningful arms (the baseline "none" is internal).
PRESSURE_ARMS = ("ksm", "compression", "balloon", "combined")

#: Arm -> (KSM on, tiering mode) of its testbed.
_ARMS = {
    "none": (False, "off"),
    "ksm": (True, "off"),
    "compression": (False, "compress"),
    "balloon": (False, "balloon"),
    "combined": (True, "combined"),
}

_ARM_OF = {setup: arm for arm, setup in _ARMS.items()}


def arm_spec(arm: str, **fields) -> ScenarioSpec:
    """The spec of one arm: KSM and tiering per the arm table, every
    other :class:`ScenarioSpec` field from ``fields``.

    The KSM-enabled arms scan with the hybrid policy, so the combined
    arm's cold hints reach the incremental passes.
    """
    if arm not in _ARMS:
        raise ValueError(
            f"unknown pressure arm {arm!r}; expected one of {tuple(_ARMS)}"
        )
    ksm_on, mode = _ARMS[arm]
    return ScenarioSpec(
        ksm=KsmSettings(scan_policy="hybrid", enabled=ksm_on),
        tiering=TieringSettings(mode=mode),
        **fields,
    )


@dataclass
class PressureArmResult:
    """Measured outcome of one arm (all byte figures at run scale)."""

    arm: str
    host_ram_bytes: int
    bytes_in_use: int
    pool_bytes: int
    ksm_saved_bytes: int
    compression_saved_bytes: int
    compression_pages: int
    compression_cpu_us: float
    balloon_reclaimed_bytes: int
    wss_bytes: int
    throughput_fraction: float
    paging_penalty: float
    tiering_penalty: float
    validation_codes: List[str] = field(default_factory=list)

    @property
    def claimed_saved_bytes(self) -> int:
        """Bytes the arm's mechanisms claim to have saved, summed."""
        return (
            self.ksm_saved_bytes
            + self.compression_saved_bytes
            + self.balloon_reclaimed_bytes
        )


def pressure_arm(spec: ScenarioSpec) -> PressureArmResult:
    """Run one arm end to end: the measure of the pressure cells."""
    arm = _ARM_OF.get((spec.ksm.enabled, spec.tiering.mode))
    if arm is None:
        raise ValueError(
            f"KSM {'on' if spec.ksm.enabled else 'off'} with tiering "
            f"{spec.tiering.mode!r} is not a pressure arm"
        )
    testbed = testbed_for(spec)
    testbed.build()
    testbed.run()
    config = testbed.config
    host = testbed.host
    physmem = host.physmem

    ksm_saved = host.ksm.saved_bytes if spec.ksm.enabled else 0
    store = host.compression
    compression_saved = store.stats.bytes_saved if store is not None else 0
    compression_pages = store.pool_pages if store is not None else 0
    compression_cpu_us = store.stats.cpu_us if store is not None else 0.0
    balloon_reclaimed = 0
    wss_bytes = 0
    if testbed.tiering is not None:
        summary = testbed.tiering.summary()
        balloon_reclaimed = summary.balloon_reclaimed_bytes
        wss_bytes = summary.final_wss_bytes

    stores = [store] if store is not None else []
    validation = validate_compression(physmem, stores)

    paging = PagingModel(
        capacity_bytes=config.host_ram_bytes,
        host_kernel_bytes=config.host_kernel_bytes,
    )
    guests = testbed.specs
    paging_penalty = paging.penalty(
        float(physmem.bytes_in_use), len(guests), guests[0].memory_bytes
    )
    window_ms = max(
        1.0, config.measurement_ticks * config.tick_minutes * 60_000.0
    )
    tiercost = TieringCostModel(window_ms=window_ms)
    tiering_penalty = tiercost.penalty(
        store_cpu_us=compression_cpu_us,
        reclaimed_bytes=balloon_reclaimed,
    )
    return PressureArmResult(
        arm=arm,
        host_ram_bytes=config.host_ram_bytes,
        bytes_in_use=physmem.bytes_in_use,
        pool_bytes=physmem.pool_bytes,
        ksm_saved_bytes=ksm_saved,
        compression_saved_bytes=compression_saved,
        compression_pages=compression_pages,
        compression_cpu_us=compression_cpu_us,
        balloon_reclaimed_bytes=balloon_reclaimed,
        wss_bytes=wss_bytes,
        throughput_fraction=paging_penalty * tiering_penalty,
        paging_penalty=paging_penalty,
        tiering_penalty=tiering_penalty,
        validation_codes=validation.codes(),
    )


@dataclass
class PressureFamilyResult:
    """All arms of one pressure run, plus the cross-arm accounting."""

    scenario: str
    seed: int
    baseline: PressureArmResult
    arms: Dict[str, PressureArmResult] = field(default_factory=dict)
    #: Per arm: bytes_in_use(baseline) − bytes_in_use(arm).
    physically_freed_bytes: Dict[str, int] = field(default_factory=dict)

    def savings_honest(self, arm: str) -> bool:
        """True when the arm claims no more than it physically freed."""
        return (
            self.arms[arm].claimed_saved_bytes
            <= self.physically_freed_bytes[arm]
        )

    def to_dict(self) -> dict:
        """JSON-serialisable summary (the CI artifact format)."""
        def row(result: PressureArmResult) -> dict:
            return {
                "host_ram_bytes": result.host_ram_bytes,
                "bytes_in_use": result.bytes_in_use,
                "pool_bytes": result.pool_bytes,
                "ksm_saved_bytes": result.ksm_saved_bytes,
                "compression_saved_bytes": result.compression_saved_bytes,
                "compression_pages": result.compression_pages,
                "balloon_reclaimed_bytes": result.balloon_reclaimed_bytes,
                "claimed_saved_bytes": result.claimed_saved_bytes,
                "wss_bytes": result.wss_bytes,
                "throughput_fraction": result.throughput_fraction,
                "paging_penalty": result.paging_penalty,
                "tiering_penalty": result.tiering_penalty,
                "validation_codes": result.validation_codes,
            }

        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "baseline": row(self.baseline),
            "arms": {name: row(r) for name, r in sorted(self.arms.items())},
            "physically_freed_bytes": dict(
                sorted(self.physically_freed_bytes.items())
            ),
            "savings_honest": {
                name: self.savings_honest(name) for name in sorted(self.arms)
            },
        }


def run_pressure_family(
    scenario: str = "daytrader4",
    scale: float = 1.0,
    measurement_ticks: int = 6,
    seed: int = 20130421,
    host_ram_fraction: float = 0.6,
    arms: Sequence[str] = PRESSURE_ARMS,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> PressureFamilyResult:
    """Run the baseline plus every requested arm under identical seeds.

    The per-arm runs are independent cells of one grid, so they fan out
    (and cache) exactly like the consolidation sweeps; the result is
    bit-identical with any worker count.
    """
    for arm in arms:
        if arm not in PRESSURE_ARMS:
            raise ValueError(
                f"unknown pressure arm {arm!r}; "
                f"expected a subset of {PRESSURE_ARMS}"
            )
    names = ("none",) + tuple(arms)
    cells = [
        (
            pressure_arm,
            arm_spec(
                arm,
                scenario=scenario,
                scale=scale,
                measurement_ticks=measurement_ticks,
                seed=seed,
                host_ram_fraction=host_ram_fraction,
            ),
        )
        for arm in names
    ]
    results = dict(zip(names, run_grid(cells, jobs=jobs, cache=cache)))
    baseline = results.pop("none")
    family = PressureFamilyResult(
        scenario=scenario, seed=seed, baseline=baseline, arms=results
    )
    for arm, result in results.items():
        family.physically_freed_bytes[arm] = (
            baseline.bytes_in_use - result.bytes_in_use
        )
    return family
