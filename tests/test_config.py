"""Unit tests for the Table I–III configuration presets."""

import pytest

from repro.config import (
    DAYTRADER_JVM,
    DAYTRADER_POWER_JVM,
    DAYTRADER_POWER_WORKLOAD,
    DAYTRADER_WORKLOAD,
    GcPolicy,
    GuestConfig,
    HostConfig,
    INTEL_GUEST_1G,
    INTEL_GUEST_SPECJ,
    INTEL_HOST,
    JvmConfig,
    KsmSettings,
    POWER_GUEST,
    POWER_HOST,
    SPECJ_JVM,
    SPECJ_JVM_GENCON,
    SPECJ_WORKLOAD,
    TPCW_JVM,
    TUSCANY_JVM,
    TUSCANY_WORKLOAD,
)
from repro.units import GiB, MiB


class TestTable1Hosts:
    def test_intel_host(self):
        assert INTEL_HOST.ram_bytes == 6 * GiB
        assert INTEL_HOST.hypervisor == "kvm"
        assert INTEL_HOST.debug_kernel

    def test_power_host(self):
        assert POWER_HOST.ram_bytes == 128 * GiB
        assert POWER_HOST.hypervisor == "powervm"

    def test_invalid_hypervisor_rejected(self):
        with pytest.raises(ValueError):
            HostConfig("x", GiB, "cpu", "vmware")

    def test_invalid_ram_rejected(self):
        with pytest.raises(ValueError):
            HostConfig("x", 0, "cpu", "kvm")


class TestTable2Guests:
    def test_intel_guests(self):
        assert INTEL_GUEST_1G.memory_bytes == 1 * GiB
        assert INTEL_GUEST_SPECJ.memory_bytes == int(1.25 * GiB)
        assert INTEL_GUEST_1G.vcpus == 2

    def test_power_guest(self):
        assert POWER_GUEST.memory_bytes == int(3.5 * GiB)
        assert POWER_GUEST.vcpus == 1
        assert not POWER_GUEST.debug_kernel  # AIX: no crash breakdowns

    def test_ksm_defaults_match_paper(self):
        settings = KsmSettings()
        assert settings.pages_to_scan == 1000
        assert settings.sleep_millisecs == 100
        assert settings.warmup_pages_to_scan == 10_000

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            GuestConfig(memory_bytes=0)


class TestTable3Jvms:
    def test_heap_sizes(self):
        assert DAYTRADER_JVM.heap_bytes == 530 * MiB
        assert SPECJ_JVM.heap_bytes == 730 * MiB
        assert TPCW_JVM.heap_bytes == 512 * MiB
        assert TUSCANY_JVM.heap_bytes == 32 * MiB
        assert DAYTRADER_POWER_JVM.heap_bytes == 1 * GiB

    def test_cache_sizes(self):
        assert DAYTRADER_JVM.shared_cache_bytes == 120 * MiB
        assert TUSCANY_JVM.shared_cache_bytes == 25 * MiB

    def test_gencon_preset(self):
        """§V.C: 530 MB nursery + 200 MB tenured for SPECjEnterprise."""
        assert SPECJ_JVM_GENCON.gc_policy is GcPolicy.GENCON
        assert SPECJ_JVM_GENCON.nursery_bytes == 530 * MiB
        assert SPECJ_JVM_GENCON.tenured_bytes == 200 * MiB

    def test_gencon_requires_area_sizes(self):
        with pytest.raises(ValueError):
            JvmConfig(
                heap_bytes=MiB,
                shared_cache_bytes=MiB,
                gc_policy=GcPolicy.GENCON,
            )

    def test_with_sharing_toggles(self):
        enabled = DAYTRADER_JVM.with_sharing(True)
        assert enabled.share_classes
        assert not DAYTRADER_JVM.share_classes  # original untouched
        assert enabled.heap_bytes == DAYTRADER_JVM.heap_bytes

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            JvmConfig(heap_bytes=0, shared_cache_bytes=MiB)
        with pytest.raises(ValueError):
            JvmConfig(heap_bytes=MiB, shared_cache_bytes=-1)


class TestTable3Drivers:
    def test_client_threads(self):
        assert DAYTRADER_WORKLOAD.client_threads == 12
        assert TUSCANY_WORKLOAD.client_threads == 7
        assert DAYTRADER_POWER_WORKLOAD.client_threads == 25

    def test_specj_injection_rate(self):
        assert SPECJ_WORKLOAD.injection_rate == 15

    def test_tuscany_standalone(self):
        assert not TUSCANY_WORKLOAD.uses_was
        assert DAYTRADER_WORKLOAD.uses_was
