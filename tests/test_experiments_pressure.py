"""Acceptance tests for the pressure-scenario family (TPS vs §VI)."""

import pytest

from repro.config import KsmSettings, ScenarioSpec, TieringSettings
from repro.core.experiments.pressure import (
    PRESSURE_ARMS,
    arm_spec,
    pressure_arm,
    run_pressure_family,
)

from tests.test_golden_figures import golden_report, report_json

FAMILY_KWARGS = dict(
    scenario="daytrader4",
    scale=0.02,
    measurement_ticks=3,
    seed=11,
    host_ram_fraction=0.6,
    cache=None,
)


@pytest.fixture(scope="module")
def family():
    return run_pressure_family(**FAMILY_KWARGS)


class TestRequest:
    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError):
            arm_spec("swap", scenario="daytrader4")
        # A spec whose KSM/tiering pair is in no row of the arm table is
        # rejected before any testbed is built.
        with pytest.raises(ValueError):
            pressure_arm(ScenarioSpec(
                "daytrader4",
                ksm=KsmSettings(enabled=False),
                tiering=TieringSettings(mode="hints"),
            ))

    def test_arm_table(self):
        for arm, ksm_on, mode in [
            ("none", False, "off"),
            ("ksm", True, "off"),
            ("compression", False, "compress"),
            ("balloon", False, "balloon"),
            ("combined", True, "combined"),
        ]:
            spec = arm_spec(arm, scenario="daytrader4", seed=11)
            assert spec.ksm == KsmSettings(
                scan_policy="hybrid", enabled=ksm_on
            ), arm
            assert spec.tiering == TieringSettings(mode=mode), arm
            assert spec.seed == 11

    def test_bad_ram_fraction_rejected(self):
        with pytest.raises(ValueError):
            arm_spec("ksm", scenario="daytrader4", host_ram_fraction=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec("daytrader4", host_ram_fraction=1.5)
        assert ScenarioSpec(
            "daytrader4", host_ram_fraction=1.0
        ).host_ram_fraction == 1.0

    def test_unknown_family_arm_rejected(self):
        with pytest.raises(ValueError):
            run_pressure_family(arms=("none",), **FAMILY_KWARGS)


class TestFamily:
    def test_all_four_arms_present(self, family):
        assert set(family.arms) == set(PRESSURE_ARMS)

    def test_arms_share_seed_and_host_sizing(self, family):
        assert family.seed == 11
        sizes = {r.host_ram_bytes for r in family.arms.values()}
        assert sizes == {family.baseline.host_ram_bytes}

    def test_every_arm_frees_memory(self, family):
        for arm in PRESSURE_ARMS:
            assert family.physically_freed_bytes[arm] > 0, arm
            assert (
                family.arms[arm].bytes_in_use
                < family.baseline.bytes_in_use
            )

    def test_savings_never_exceed_physically_freed(self, family):
        """The ISSUE's acceptance bar: with pool bytes charged to the
        host, no arm may claim more than the baseline delta shows."""
        for arm in PRESSURE_ARMS:
            assert family.savings_honest(arm), arm

    def test_validation_clean_on_every_arm(self, family):
        for arm, result in family.arms.items():
            assert result.validation_codes == [], arm

    def test_mechanisms_match_their_arm(self, family):
        ksm = family.arms["ksm"]
        assert ksm.ksm_saved_bytes > 0
        assert ksm.compression_saved_bytes == 0
        assert ksm.balloon_reclaimed_bytes == 0
        compression = family.arms["compression"]
        assert compression.ksm_saved_bytes == 0
        assert compression.compression_saved_bytes > 0
        balloon = family.arms["balloon"]
        assert balloon.ksm_saved_bytes == 0
        assert balloon.balloon_reclaimed_bytes > 0
        combined = family.arms["combined"]
        assert combined.ksm_saved_bytes > 0

    def test_throughput_priced_not_free(self, family):
        for arm, result in family.arms.items():
            assert 0.0 < result.throughput_fraction <= 1.0
            assert result.throughput_fraction == pytest.approx(
                result.paging_penalty * result.tiering_penalty
            )
        # Arms that decompress or balloon must pay a tiering cost.
        assert family.arms["compression"].tiering_penalty < 1.0
        assert family.arms["balloon"].tiering_penalty < 1.0

    def test_to_dict_is_json_ready(self, family):
        import json

        report = family.to_dict()
        assert set(report["arms"]) == set(PRESSURE_ARMS)
        assert report["savings_honest"] == {
            arm: True for arm in PRESSURE_ARMS
        }
        for arm in PRESSURE_ARMS:
            row = report["arms"][arm]
            assert row["claimed_saved_bytes"] == (
                row["ksm_saved_bytes"]
                + row["compression_saved_bytes"]
                + row["balloon_reclaimed_bytes"]
            )
        json.dumps(report)  # must not raise

    def test_matches_golden(self, family):
        assert report_json(family.to_dict()) == golden_report("pressure")


class TestSingleArm:
    def test_single_arm_reproducible(self):
        spec = arm_spec(
            "compression", scenario="daytrader4", scale=0.02,
            measurement_ticks=2, seed=11, host_ram_fraction=0.6,
        )
        first = pressure_arm(spec)
        second = pressure_arm(spec)
        assert first.arm == "compression"
        assert first == second

    def test_caching_round_trip(self, tmp_path):
        from repro.exec.cache import ResultCache

        cache = ResultCache(root=tmp_path)
        kwargs = dict(FAMILY_KWARGS, measurement_ticks=2, cache=cache)
        first = run_pressure_family(**kwargs)
        second = run_pressure_family(**kwargs)  # all hits
        assert first.to_dict() == second.to_dict()
