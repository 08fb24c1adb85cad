"""Integration tests for the consolidation sweeps (scaled Figs. 7–8)."""

import pytest

from repro.config import ScenarioSpec
from repro.core.experiments.consolidation import (
    footprint,
    run_daytrader_consolidation,
    run_specj_consolidation,
)
from repro.core.preload import CacheDeployment
from repro.units import MiB

SCALE = 0.03


def _daytrader_footprint(deployment):
    return footprint(ScenarioSpec(
        "daytrader4", deployment, scale=SCALE, measurement_ticks=2,
        guests=3,
    ))


@pytest.fixture(scope="module")
def daytrader():
    return run_daytrader_consolidation(footprint_scale=SCALE)


@pytest.fixture(scope="module")
def specj():
    return run_specj_consolidation(footprint_scale=SCALE)


class TestFootprintMeasurement:
    def test_footprint_scales_back_to_full_size(self):
        measured = _daytrader_footprint(CacheDeployment.NONE)
        # A 1 GB DayTrader guest maps roughly 1 GB (±20 %).
        assert 800 * MiB < measured.per_vm_resident_bytes < 1200 * MiB
        assert 0 < measured.per_nonprimary_saving_bytes < (
            measured.per_vm_resident_bytes
        )

    def test_preload_increases_saving(self):
        base = _daytrader_footprint(CacheDeployment.NONE)
        preloaded = _daytrader_footprint(CacheDeployment.SHARED_COPY)
        gain = (
            preloaded.per_nonprimary_saving_bytes
            - base.per_nonprimary_saving_bytes
        )
        # The paper reports ≈100 MB of extra sharing per Java process.
        assert 60 * MiB < gain < 160 * MiB

    def test_marginal_vm_cost(self):
        measured = _daytrader_footprint(CacheDeployment.NONE)
        assert measured.marginal_vm_bytes == (
            measured.per_vm_resident_bytes
            - measured.per_nonprimary_saving_bytes
        )


class TestDayTraderSweep:
    def test_vm_counts(self, daytrader):
        assert daytrader.vm_counts == list(range(1, 10))
        assert set(daytrader.points) == {"default", "preloaded"}

    def test_healthy_ramp_is_linear(self, daytrader):
        for label in ("default", "preloaded"):
            series = daytrader.series(label)
            assert series[2] == pytest.approx(3 * series[0], rel=0.01)

    def test_one_extra_vm(self, daytrader):
        """Fig. 7's headline: the preloaded deployment runs one more VM
        at acceptable performance (7 → 8)."""
        default_max = daytrader.max_acceptable_vms("default")
        preloaded_max = daytrader.max_acceptable_vms("preloaded")
        assert preloaded_max == default_max + 1
        assert default_max == 7

    def test_cliff_shape(self, daytrader):
        """At 8 VMs the default collapses while preloaded stays high; at
        9 VMs both collapse with preloaded still ahead."""
        default = dict(zip(daytrader.vm_counts, daytrader.series("default")))
        preloaded = dict(
            zip(daytrader.vm_counts, daytrader.series("preloaded"))
        )
        assert default[8] < 0.3 * default[7]
        assert preloaded[8] > 3 * default[8]
        assert preloaded[9] > default[9]
        assert preloaded[9] < 0.5 * preloaded[8]

    def test_penalties_monotonic(self, daytrader):
        for label in ("default", "preloaded"):
            penalties = [p.penalty for p in daytrader.points[label]]
            assert penalties == sorted(penalties, reverse=True)


class TestSpecjSweep:
    def test_vm_counts(self, specj):
        assert specj.vm_counts == [5, 6, 7, 8]

    def test_flat_score_while_sla_holds(self, specj):
        """Fig. 8: the score sits at ≈24 while the SLA is met (fixed
        injection rate — no performance peak)."""
        for label in ("default", "preloaded"):
            healthy = [
                p.metric for p in specj.points[label] if p.sla_met
            ]
            assert healthy
            assert all(value == pytest.approx(24.0) for value in healthy)

    def test_one_extra_vm(self, specj):
        """Fig. 8's headline: 6 VMs default, 7 preloaded."""
        default_ok = [p.n_vms for p in specj.points["default"] if p.sla_met]
        preloaded_ok = [
            p.n_vms for p in specj.points["preloaded"] if p.sla_met
        ]
        assert max(default_ok) == 6
        assert max(preloaded_ok) == 7

    def test_default_degrades_at_seven(self, specj):
        points = {p.n_vms: p for p in specj.points["default"]}
        assert not points[7].sla_met
        assert points[7].metric < 24.0
