"""Unit tests for the guest kernel: gfn allocation, ownership, boot."""

import pytest

from repro.guestos.kernel import (
    GuestKernel,
    KernelProfile,
    OutOfGuestMemoryError,
    OwnerKind,
    PageOwner,
)
from repro.hypervisor.kvm import KvmHost
from repro.units import KiB, MiB

from tests.conftest import tiny_kernel_profile


@pytest.fixture
def env():
    host = KvmHost(64 * MiB, seed=3)
    vm = host.create_guest("vm1", 2 * MiB)
    kernel = GuestKernel(vm, host.rng.derive("g"))
    return host, vm, kernel


class TestGfnAllocation:
    def test_alloc_records_owner(self, env):
        _host, _vm, kernel = env
        gfn = kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL, tag="slab"))
        owner = kernel.owner_of(gfn)
        assert owner.kind is OwnerKind.KERNEL
        assert owner.tag == "slab"

    def test_alloc_until_exhaustion(self, env):
        _host, _vm, kernel = env
        for _ in range(kernel.total_pages):
            kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL))
        with pytest.raises(OutOfGuestMemoryError):
            kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL))

    def test_free_and_reuse(self, env):
        _host, _vm, kernel = env
        gfn = kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL))
        kernel.free_gfn(gfn)
        assert kernel.owner_of(gfn).kind is OwnerKind.FREE
        again = kernel.alloc_gfn(PageOwner(OwnerKind.PROCESS_ANON, pid=9))
        assert again == gfn

    def test_double_free_rejected(self, env):
        _host, _vm, kernel = env
        gfn = kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL))
        kernel.free_gfn(gfn)
        with pytest.raises(ValueError):
            kernel.free_gfn(gfn)

    def test_free_unallocated_rejected(self, env):
        _host, _vm, kernel = env
        with pytest.raises(ValueError):
            kernel.free_gfn(12)

    def test_allocated_pages_excludes_free(self, env):
        _host, _vm, kernel = env
        gfn = kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL))
        kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL))
        kernel.free_gfn(gfn)
        assert kernel.allocated_pages() == 1


class TestOwnerInterning:
    def test_faults_share_one_record_per_class(self, env):
        _host, _vm, kernel = env
        first, second = kernel.spawn("p1"), kernel.spawn("p2")
        heap = first.mmap_anon(2 * 4096, "heap")
        stack = first.mmap_anon(4096, "stack")
        other_heap = second.mmap_anon(4096, "heap")
        first.write_token(heap, 0, 1)
        first.write_token(heap, 1, 2)
        first.write_token(stack, 0, 3)
        second.write_token(other_heap, 0, 4)

        def owner(process, vma, page):
            gfn = process.page_table.translate(vma.vpn_of(page))
            return kernel.owner_of(gfn)

        assert owner(first, heap, 0) is owner(first, heap, 1)
        assert owner(first, heap, 0) is kernel.owner_record(
            OwnerKind.PROCESS_ANON, first.pid, "heap"
        )
        assert owner(first, stack, 0) is not owner(first, heap, 0)
        assert owner(second, other_heap, 0) is not owner(first, heap, 0)
        assert owner(second, other_heap, 0).tag == "heap"

    def test_freed_gfns_share_the_free_record(self, env):
        _host, _vm, kernel = env
        gfns = [
            kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL)) for _ in range(2)
        ]
        for gfn in gfns:
            kernel.free_gfn(gfn)
        assert kernel.owner_of(gfns[0]) is kernel.owner_of(gfns[1])
        assert kernel.owner_of(gfns[0]).kind is OwnerKind.FREE


class TestBoot:
    def test_boot_touches_kernel_areas(self, env):
        host, vm, kernel = env
        profile = tiny_kernel_profile()
        kernel.boot(profile)
        assert kernel.kernel_resident_bytes() >= profile.total_bytes

    def test_double_boot_rejected(self, env):
        _host, _vm, kernel = env
        kernel.boot(tiny_kernel_profile())
        with pytest.raises(RuntimeError):
            kernel.boot(tiny_kernel_profile())

    def test_identical_images_share_code_and_cache(self):
        """Two guests booted from one base image have identical kernel
        text and clean page-cache pages (the Fig. 2 kernel sharing)."""
        host = KvmHost(64 * MiB, seed=3)
        profile = tiny_kernel_profile()
        tokens = {}
        for name in ("vm1", "vm2"):
            vm = host.create_guest(name, 2 * MiB)
            kernel = GuestKernel(vm, host.rng.derive("g", name))
            kernel.boot(profile)
            code = kernel.kernel_area_pages("code")
            cache = kernel.kernel_area_pages("pagecache")
            data = kernel.kernel_area_pages("data")
            tokens[name] = {
                "code": [vm.read_gfn(g) for g in code],
                "cache": [vm.read_gfn(g) for g in cache],
                "data": [vm.read_gfn(g) for g in data],
            }
        assert tokens["vm1"]["code"] == tokens["vm2"]["code"]
        assert tokens["vm1"]["cache"] == tokens["vm2"]["cache"]
        assert tokens["vm1"]["data"] != tokens["vm2"]["data"]

    def test_different_images_do_not_share(self):
        host = KvmHost(64 * MiB, seed=3)
        results = []
        for name, image in (("vm1", "rhel5.5"), ("vm2", "rhel6.0")):
            vm = host.create_guest(name, 2 * MiB)
            kernel = GuestKernel(vm, host.rng.derive("g", name))
            profile = KernelProfile(
                image_id=image,
                code_bytes=64 * KiB,
                shared_pagecache_bytes=64 * KiB,
                private_data_bytes=64 * KiB,
                buffers_bytes=64 * KiB,
            )
            kernel.boot(profile)
            code = kernel.kernel_area_pages("code")
            results.append([vm.read_gfn(g) for g in code])
        assert results[0] != results[1]


class TestProcesses:
    def test_spawn_increments_pid(self, env):
        _host, _vm, kernel = env
        a = kernel.spawn("p1")
        b = kernel.spawn("p2")
        assert b.pid == a.pid + 1
        assert kernel.process(a.pid) is a
        assert set(kernel.processes) == {a, b}

    def test_pid_base_is_per_vm(self):
        host = KvmHost(64 * MiB, seed=3)
        pids = []
        for name in ("vm1", "vm2"):
            vm = host.create_guest(name, MiB)
            kernel = GuestKernel(vm, host.rng.derive("g", name))
            pids.append(kernel.spawn("p").pid)
        assert pids[0] != pids[1]

    def test_explicit_pid_base(self, env):
        host, vm, _ = env
        kernel = GuestKernel(
            host.guest("vm1"), host.rng.derive("x"), pid_base=500
        )
        assert kernel.spawn("p").pid == 500

    def test_exit_process(self, env):
        _host, _vm, kernel = env
        process = kernel.spawn("p1")
        vma = process.mmap_anon(8192, "heap")
        process.write_token(vma, 0, 1)
        kernel.exit_process(process)
        assert process.pid not in [p.pid for p in kernel.processes]
        assert not process.alive
