"""Acceptance: parallel execution is bit-identical to serial.

``jobs=4`` fans work units out over a process pool; nothing about
worker identity, scheduling or completion order may leak into results.
Equality is asserted on the *serialized reports* (the byte-for-byte
text the figures print), the strongest observable the pipeline has.
"""

from repro.config import ScenarioSpec
from repro.core.experiments.consolidation import run_daytrader_consolidation
from repro.core.experiments.scenarios import run, run_grid
from repro.core.preload import CacheDeployment
from repro.core.report import render_series, render_vm_breakdown

SCALE = 0.02
SWEEP_KWARGS = dict(
    vm_counts=(1, 2, 3),
    footprint_scale=SCALE,
    footprint_guests=2,
    measurement_ticks=2,
    seed=11,
)


def _render_sweep(result):
    lines = [
        render_series(
            "fig7", "guest VMs", result.vm_counts,
            {
                "default": result.series("default"),
                "preloaded": result.series("preloaded"),
            },
        )
    ]
    for label in ("default", "preloaded"):
        footprint = result.footprints[label]
        lines.append(
            f"{label} R={footprint.per_vm_resident_bytes!r} "
            f"S={footprint.per_nonprimary_saving_bytes!r}"
        )
    return "\n".join(lines)


class TestParallelSerialEquality:
    def test_consolidation_sweep_jobs4_equals_jobs1(self):
        serial = run_daytrader_consolidation(jobs=1, **SWEEP_KWARGS)
        parallel = run_daytrader_consolidation(jobs=4, **SWEEP_KWARGS)
        assert _render_sweep(parallel) == _render_sweep(serial)
        # Beyond the rendered series: the measured footprints and every
        # sweep point agree exactly.
        for label in ("default", "preloaded"):
            assert parallel.footprints[label] == serial.footprints[label]
            for a, b in zip(parallel.points[label], serial.points[label]):
                assert a == b

    def test_breakdown_scenarios_jobs4_equal_serial(self):
        cells = [
            (
                run,
                ScenarioSpec(
                    "daytrader4", deployment, scale=SCALE,
                    measurement_ticks=1, seed=7,
                ),
            )
            for deployment in (
                CacheDeployment.NONE, CacheDeployment.SHARED_COPY
            )
        ]
        serial = run_grid(cells, jobs=1)
        parallel = run_grid(cells, jobs=4)
        for fast, slow in zip(parallel, serial):
            assert render_vm_breakdown(
                fast.vm_breakdown, "cmp"
            ) == render_vm_breakdown(slow.vm_breakdown, "cmp")
            assert fast.ksm_stats.pages_scanned == slow.ksm_stats.pages_scanned
            assert fast.ksm_stats.merges == slow.ksm_stats.merges
