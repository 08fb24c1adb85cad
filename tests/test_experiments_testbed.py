"""Tests for the KVM testbed builder and the workload scaler."""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.config import (
    Benchmark,
    GcPolicy,
    HugePageSettings,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
)
from repro.core.experiments import scenarios
from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    TestbedConfig,
    scale_kernel_profile,
    scale_workload,
)
from repro.core.preload import CacheDeployment
from repro.faults.plan import FaultPlan
from repro.units import KiB, MiB
from repro.workloads.base import build_workload

from tests.conftest import tiny_kernel_profile, tiny_workload


def small_config(**overrides):
    values = dict(
        host_ram_bytes=128 * MiB,
        host_kernel_bytes=2 * MiB,
        qemu_overhead_bytes=256 * KiB,
        kernel_profile=tiny_kernel_profile(),
        measurement_ticks=2,
        tick_minutes=0.2,
        scale=0.02,
        seed=11,
    )
    values.update(overrides)
    return TestbedConfig(**values)


def small_specs(n=2):
    workload = tiny_workload()
    return [GuestSpec(f"vm{i + 1}", 16 * MiB, workload) for i in range(n)]


class TestScaleWorkload:
    def test_identity_at_one(self):
        workload = build_workload(Benchmark.DAYTRADER)
        assert scale_workload(workload, 1.0) is workload

    def test_scales_bytes_and_counts(self):
        workload = build_workload(Benchmark.DAYTRADER)
        scaled = scale_workload(workload, 0.1)
        assert scaled.profile.jit_code_bytes == pytest.approx(
            workload.profile.jit_code_bytes * 0.1, rel=0.01
        )
        assert scaled.profile.middleware_classes == pytest.approx(
            workload.profile.middleware_classes * 0.1, rel=0.01
        )
        assert scaled.jvm_config.heap_bytes == pytest.approx(
            workload.jvm_config.heap_bytes * 0.1, rel=0.01
        )

    def test_preserves_fractions(self):
        workload = build_workload(Benchmark.DAYTRADER)
        scaled = scale_workload(workload, 0.1)
        assert (
            scaled.profile.heap_touched_fraction
            == workload.profile.heap_touched_fraction
        )

    def test_scales_gencon_areas(self):
        from repro.config import SPECJ_JVM_GENCON
        from repro.workloads.base import Workload

        base = build_workload(Benchmark.SPECJENTERPRISE)
        workload = Workload(
            base.profile, SPECJ_JVM_GENCON, base.driver_config
        )
        scaled = scale_workload(workload, 0.1)
        assert scaled.jvm_config.gc_policy is GcPolicy.GENCON
        assert scaled.jvm_config.nursery_bytes < workload.jvm_config.nursery_bytes

    def test_invalid_factor_rejected(self):
        workload = build_workload(Benchmark.DAYTRADER)
        with pytest.raises(ValueError):
            scale_workload(workload, 0.0)
        with pytest.raises(ValueError):
            scale_workload(workload, 1.5)

    def test_scale_kernel_profile(self):
        profile = scale_kernel_profile(0.1)
        assert profile.total_bytes < tiny_kernel_profile().total_bytes * 10**6


class TestTestbed:
    def test_requires_guests(self):
        with pytest.raises(ValueError):
            KvmTestbed([], small_config())

    def test_build_creates_jvms_and_daemons(self):
        testbed = KvmTestbed(small_specs(), small_config())
        testbed.build()
        assert set(testbed.jvms) == {"vm1", "vm2"}
        for kernel in testbed.kernels.values():
            names = {p.name for p in kernel.processes}
            assert names == {"java", "sshd", "rsyslogd"}

    def test_double_build_rejected(self):
        testbed = KvmTestbed(small_specs(), small_config())
        testbed.build()
        with pytest.raises(RuntimeError):
            testbed.build()

    def test_run_and_measure(self):
        testbed = KvmTestbed(small_specs(), small_config())
        result = testbed.measure()
        assert len(result.vm_breakdown.rows) == 2
        assert len(result.java_breakdown.rows) == 2
        assert result.ksm_stats.pages_scanned > 0
        assert result.accounting.total_usage() > 0

    def test_double_run_rejected(self):
        testbed = KvmTestbed(small_specs(), small_config())
        testbed.run()
        with pytest.raises(RuntimeError):
            testbed.run()

    def test_no_system_processes_option(self):
        config = small_config(system_processes=False)
        testbed = KvmTestbed(small_specs(), config)
        testbed.build()
        for kernel in testbed.kernels.values():
            assert {p.name for p in kernel.processes} == {"java"}

    def test_preload_deployment_attaches_caches(self):
        config = small_config(deployment=CacheDeployment.SHARED_COPY)
        testbed = KvmTestbed(small_specs(), config)
        testbed.build()
        for jvm in testbed.jvms.values():
            assert jvm.cache_attached


@contextmanager
def collector_disabled():
    """Run the block with the cyclic collector off, then restore it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestCollectorPause:
    """``build``/``run``/``measure`` pause the cyclic collector."""

    def test_disabled_during_phases_and_enabled_after(self, monkeypatch):
        seen = []
        original = KvmTestbed.warmup

        def observed(testbed):
            seen.append(gc.isenabled())
            original(testbed)

        monkeypatch.setattr(KvmTestbed, "warmup", observed)
        assert gc.isenabled()
        KvmTestbed(small_specs(), small_config()).measure()
        assert seen == [False]
        assert gc.isenabled()

    def test_enabled_after_a_phase_raises(self):
        testbed = KvmTestbed(small_specs(), small_config())
        testbed.build()
        with pytest.raises(RuntimeError):
            testbed.build()
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        with collector_disabled():
            KvmTestbed(small_specs(), small_config()).measure()
            assert not gc.isenabled()

    def test_build_frees_a_dead_testbed(self):
        # The caller keeps the collector off, so only build()'s own
        # collection can free the first testbed's reference cycles.
        with collector_disabled():
            first = KvmTestbed(small_specs(), small_config())
            first.build()
            host = weakref.ref(first.host)
            del first
            second = KvmTestbed(small_specs(), small_config())
            assert host() is not None  # cyclic: refcounting cannot free it
            second.build()
            assert host() is None


#: Configurations whose runs must leave no cyclic garbage behind.
NO_CYCLE_SPECS = {
    "default": {},
    "faults": {"faults": FaultPlan.from_spec("1337:0.2")},
    "tiering-combined": {"tiering": TieringSettings(mode="combined")},
    "thp-always": {
        "hugepages": HugePageSettings(policy="always", block_pages=16)
    },
    "incremental": {"ksm": KsmSettings(scan_policy="incremental")},
}


@pytest.mark.parametrize(
    "overrides", NO_CYCLE_SPECS.values(), ids=NO_CYCLE_SPECS
)
def test_no_cyclic_garbage_while_a_testbed_runs(overrides, monkeypatch):
    unreachable = []
    original = KvmTestbed.measure

    def measure_then_collect(testbed, *args, **kwargs):
        result = original(testbed, *args, **kwargs)
        unreachable.append(gc.collect())  # the testbed is still referenced
        return result

    monkeypatch.setattr(KvmTestbed, "measure", measure_then_collect)
    spec = ScenarioSpec(
        scenario="daytrader4", scale=0.02, measurement_ticks=2, **overrides
    )
    with collector_disabled():
        scenarios.run(spec)
    assert len(unreachable) == 1
    assert unreachable[0] < 1000
