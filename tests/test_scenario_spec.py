"""The ScenarioSpec API: the one description of a testbed run.

One frozen value object — :class:`repro.config.ScenarioSpec` — describes
every experiment cell; :func:`testbed_for` is the only place it becomes
a testbed.  The contract tested here: the CLI namespace round-trips into
a spec, settings validate themselves, and ``guests`` /
``host_ram_fraction`` shape the testbed as documented.
"""

import argparse

import pytest

from repro.config import (
    Benchmark,
    HugePageSettings,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
)
from repro.core.experiments import scenarios
from repro.core.preload import CacheDeployment

KWARGS = dict(scale=0.02, measurement_ticks=2, seed=20130421)


class TestFromCliArgs:
    def _namespace(self, **overrides):
        values = dict(
            scale=0.02,
            ticks=2,
            seed=7,
            scan_policy="hybrid",
            tiering="compress",
            faults=None,
            jobs=3,
            thp_policy="khugepaged",
            hugepages=64,
            deployment="shared-copy",
        )
        values.update(overrides)
        return argparse.Namespace(**values)

    def test_round_trip(self):
        spec = ScenarioSpec.from_cli_args(
            self._namespace(), scenario="mixed3"
        )
        assert spec.scenario == "mixed3"
        assert spec.deployment is CacheDeployment.SHARED_COPY
        assert spec.scale == 0.02
        assert spec.measurement_ticks == 2
        assert spec.seed == 7
        assert spec.ksm.scan_policy == "hybrid"
        assert spec.tiering.mode == "compress"
        assert spec.hugepages == HugePageSettings(
            policy="khugepaged", block_pages=64
        )
        # --jobs is the grid's fan-out width, not part of the spec.
        assert spec.guests is None
        assert spec.host_ram_fraction == 1.0

    def test_faults_parsed_from_spec_string(self):
        spec = ScenarioSpec.from_cli_args(
            self._namespace(faults="1337:0.25"), scenario="daytrader4"
        )
        assert spec.faults is not None
        assert spec.faults.seed == 1337

    def test_partial_namespace_falls_back_to_defaults(self):
        spec = ScenarioSpec.from_cli_args(
            argparse.Namespace(scale=0.5), scenario="daytrader4"
        )
        assert spec.scale == 0.5
        assert spec.ksm == KsmSettings()
        assert spec.tiering == TieringSettings()
        assert not spec.hugepages.enabled


class TestSettingsValidation:
    def test_policy_is_validated(self):
        with pytest.raises(ValueError):
            HugePageSettings(policy="sometimes")

    def test_block_pages_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HugePageSettings(policy="always", block_pages=48)
        with pytest.raises(ValueError):
            HugePageSettings(policy="always", block_pages=1)

    def test_guests_must_be_positive(self):
        with pytest.raises(ValueError):
            ScenarioSpec("daytrader4", guests=0)
        assert ScenarioSpec("daytrader4", guests=1).guests == 1


class TestTestbedFor:
    def test_scenario_arrangement_by_default(self):
        testbed = scenarios.testbed_for(ScenarioSpec("mixed3", **KWARGS))
        assert [guest.name for guest in testbed.specs] == [
            "vm1", "vm2", "vm3"
        ]
        assert [guest.workload.benchmark for guest in testbed.specs] == [
            Benchmark.DAYTRADER, Benchmark.SPECJENTERPRISE, Benchmark.TPCW
        ]

    def test_guests_cycle_the_arrangement_and_share_workloads(self):
        testbed = scenarios.testbed_for(
            ScenarioSpec("mixed3", guests=5, **KWARGS)
        )
        guests = testbed.specs
        assert [guest.name for guest in guests] == [
            "vm1", "vm2", "vm3", "vm4", "vm5"
        ]
        assert [guest.workload.benchmark for guest in guests] == [
            Benchmark.DAYTRADER, Benchmark.SPECJENTERPRISE, Benchmark.TPCW,
            Benchmark.DAYTRADER, Benchmark.SPECJENTERPRISE,
        ]
        assert guests[0].workload is guests[3].workload
        assert guests[1].workload is guests[4].workload
        assert guests[1].memory_bytes > guests[0].memory_bytes

    def test_specj3_runs_gencon(self):
        from repro.config import GcPolicy

        testbed = scenarios.testbed_for(ScenarioSpec("specj3", **KWARGS))
        assert len(testbed.specs) == 3
        for guest in testbed.specs:
            assert guest.workload.jvm_config.gc_policy is GcPolicy.GENCON

    def test_host_ram_fraction_undersizes_the_host(self):
        full = scenarios.testbed_for(ScenarioSpec("daytrader4", **KWARGS))
        small = scenarios.testbed_for(
            ScenarioSpec("daytrader4", host_ram_fraction=0.5, **KWARGS)
        )
        assert small.config.host_ram_bytes == (
            full.config.host_ram_bytes // 2
        )

    def test_spec_settings_reach_the_config(self):
        spec = ScenarioSpec(
            "daytrader4",
            deployment=CacheDeployment.SHARED_COPY,
            ksm=KsmSettings(enabled=False),
            tiering=TieringSettings(mode="compress"),
            hugepages=HugePageSettings(policy="always", block_pages=16),
            **KWARGS,
        )
        config = scenarios.testbed_for(spec).config
        assert config.deployment is CacheDeployment.SHARED_COPY
        assert config.ksm.enabled is False
        assert config.tiering.mode == "compress"
        assert config.hugepages.policy == "always"
        assert config.measurement_ticks == 2
        default = scenarios.testbed_for(
            ScenarioSpec("daytrader4", **KWARGS)
        ).config
        assert default.tiering is None and default.hugepages is None

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenarios.testbed_for(ScenarioSpec("nope"))
