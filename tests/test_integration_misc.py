"""Cross-cutting integration checks that no single module test covers."""

import pytest

from repro.core.accounting import (
    UserKind,
    owner_oriented_accounting,
)
from repro.core.dump import collect_system_dump
from repro.guestos.kernel import GuestKernel, OwnerKind, PageOwner
from repro.hypervisor.kvm import KvmHost
from repro.hypervisor.powervm import PowerVmHost
from repro.jvm.jvm import JavaVM
from repro.units import MiB

from tests.conftest import tiny_kernel_profile, tiny_workload
from tests.oracle import build_frame_usage

PAGE = 4096


class TestJvmOnPowerVm:
    def test_full_jvm_runs_inside_an_lpar(self):
        """The whole JVM stack works on the system-VM hypervisor too —
        the paper's §V.B portability claim."""
        host = PowerVmHost(512 * MiB, seed=29)
        lpar = host.create_guest("lpar1", 64 * MiB)
        kernel = GuestKernel(
            lpar, host.rng.derive("g"), debug_kernel=False
        )
        kernel.boot(tiny_kernel_profile())
        workload = tiny_workload()
        jvm = JavaVM(
            kernel.spawn("java"),
            workload.jvm_config,
            workload.profile,
            workload.universe(),
            host.rng.derive("jvm"),
        )
        jvm.startup()
        jvm.tick()
        assert jvm.resident_bytes() > 0
        assert host.monitor_total_usage_bytes() > 0

    def test_two_preloaded_lpars_share_after_dedup(self):
        from repro.core.preload import CacheDeployment, CacheProvisioner

        host = PowerVmHost(512 * MiB, seed=29)
        provisioner = CacheProvisioner(
            CacheDeployment.SHARED_COPY, PAGE, host.rng.derive("p")
        )
        workload = tiny_workload()
        for name in ("lpar1", "lpar2"):
            lpar = host.create_guest(name, 64 * MiB)
            kernel = GuestKernel(
                lpar, host.rng.derive("g", name), debug_kernel=False
            )
            kernel.boot(tiny_kernel_profile())
            cache = provisioner.cache_for(workload, name)
            jvm = JavaVM(
                kernel.spawn("java"),
                workload.jvm_config.with_sharing(True),
                workload.profile,
                workload.universe(),
                host.rng.derive("jvm", name),
                cache=cache,
            )
            jvm.startup()
        before = host.monitor_total_usage_bytes()
        merged = host.run_page_sharing()
        after = host.monitor_total_usage_bytes()
        assert merged > 0
        assert after < before


class TestAccountingEdges:
    def test_guest_freed_pages_charged_to_kernel(self):
        """Pages a guest freed but the host still backs (no ballooning)
        appear under the guest kernel in the breakdown."""
        host = KvmHost(64 * MiB, seed=29)
        vm = host.create_guest("vm1", 4 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g"))
        gfn = kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL, tag="slab"))
        vm.write_gfn(gfn, 123)
        kernel.free_gfn(gfn)
        dump = collect_system_dump(host, {"vm1": kernel})
        usage = build_frame_usage(dump)
        assert len(usage) == 1
        (mappings,) = usage.values()
        assert mappings[0].user.kind is UserKind.KERNEL
        assert mappings[0].tag == "kernel:free"

    def test_host_kernel_memory_not_in_guest_accounting(self):
        host = KvmHost(64 * MiB, seed=29, host_kernel_bytes=MiB)
        vm = host.create_guest("vm1", 4 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g"))
        process = kernel.spawn("p")
        vma = process.mmap_anon(PAGE, "p:heap")
        process.write_token(vma, 0, 1)
        dump = collect_system_dump(host, {"vm1": kernel})
        accounting = owner_oriented_accounting(dump)
        # Only the guest page is attributed; the host kernel MiB is not.
        assert accounting.total_usage() == PAGE


class TestHostKsmDriving:
    def test_run_ksm_for_ms_advances_clock(self):
        host = KvmHost(64 * MiB, seed=29)
        vm = host.create_guest("vm1", 4 * MiB)
        vm.write_gfn(0, 1)
        before = host.clock.now_ms
        host.ksm.run_for_ms(1_000)
        assert host.clock.now_ms >= before + 900

    def test_warmup_restores_scan_rate(self):
        """The testbed boosts pages_to_scan for warm-up and must restore
        the measurement setting afterwards (§II.C)."""
        from repro.core.experiments.testbed import (
            GuestSpec,
            KvmTestbed,
            TestbedConfig,
        )

        config = TestbedConfig(
            host_ram_bytes=128 * MiB,
            host_kernel_bytes=MiB,
            qemu_overhead_bytes=1 << 16,
            kernel_profile=tiny_kernel_profile(),
            measurement_ticks=1,
            tick_minutes=0.1,
            scale=0.02,
        )
        testbed = KvmTestbed(
            [GuestSpec("vm1", 16 * MiB, tiny_workload())], config
        )
        testbed.run()
        assert (
            testbed.host.ksm.config.pages_to_scan
            == config.ksm.pages_to_scan
        )
