"""Unit tests for owner-oriented and distribution-oriented accounting."""

import pytest

from repro.core.accounting import (
    UserKind,
    distribution_oriented_accounting,
    owner_oriented_accounting,
)
from repro.core.categories import MemoryCategory
from repro.core.dump import collect_system_dump
from repro.guestos.kernel import GuestKernel
from repro.guestos.pagecache import BackingFile
from repro.hypervisor.kvm import KvmHost
from repro.units import KiB, MiB

from tests.conftest import tiny_kernel_profile
from tests.oracle import build_frame_usage

PAGE = 4096


def build_env(pid_bases=(400, 300)):
    """Two guests, one java + one daemon each, with a known shared page.

    The java heap page with token 77 is identical in both VMs; everything
    else is distinct.  vm2's java process gets the smaller PID, so it must
    own the shared frame.
    """
    host = KvmHost(64 * MiB, seed=9)
    kernels = {}
    javas = []
    for index, name in enumerate(("vm1", "vm2")):
        vm = host.create_guest(name, 4 * MiB)
        kernel = GuestKernel(
            vm, host.rng.derive("g", name), pid_base=pid_bases[index]
        )
        kernels[name] = kernel
        java = kernel.spawn("java")
        heap = java.mmap_anon(2 * PAGE, "java:heap")
        java.write_token(heap, 0, 77)  # identical across VMs
        java.write_token(heap, 1, 100 + index)  # private
        javas.append(java)
        daemon = kernel.spawn("sshd")
        anon = daemon.mmap_anon(PAGE, "sshd:heap")
        daemon.write_token(anon, 0, 200 + index)
        vm.allocate_overhead(PAGE)
    host.ksm.run_until_converged()
    dump = collect_system_dump(host, kernels)
    return host, dump, javas


class TestFrameUsage:
    def test_every_backed_frame_attributed(self):
        host, dump, _javas = build_env()
        usage = build_frame_usage(dump)
        # Guests' frames: token-77 merged frame + 2 private heap pages +
        # 2 daemon pages + 2 overhead pages = 7 frames.
        assert len(usage) == 7

    def test_process_pages_carry_categories(self):
        _host, dump, _javas = build_env()
        usage = build_frame_usage(dump)
        categories = {
            mapping.category
            for mappings in usage.values()
            for mapping in mappings
        }
        assert MemoryCategory.JAVA_HEAP in categories

    def test_qemu_overhead_is_vm_self(self):
        _host, dump, _javas = build_env()
        usage = build_frame_usage(dump)
        vm_self = [
            mapping
            for mappings in usage.values()
            for mapping in mappings
            if mapping.user.kind is UserKind.VM_SELF
        ]
        assert len(vm_self) == 2


class TestOwnerOriented:
    def test_total_usage_equals_backed_frames(self):
        """Conservation: summed usage is exactly the frames the guests
        occupy — nothing double-counted, nothing lost."""
        _host, dump, _javas = build_env()
        usage = build_frame_usage(dump)
        accounting = owner_oriented_accounting(dump)
        assert accounting.total_usage() == len(usage) * PAGE

    def test_java_smallest_pid_owns_shared_frame(self):
        _host, dump, javas = build_env(pid_bases=(400, 300))
        accounting = owner_oriented_accounting(dump)
        vm1_java = next(
            u for u in accounting.java_users() if u.vm_name == "vm1"
        )
        vm2_java = next(
            u for u in accounting.java_users() if u.vm_name == "vm2"
        )
        # vm2's java (pid 300) owns; vm1's java (pid 400) shares.
        assert accounting.usage_of(vm2_java) == 2 * PAGE
        assert accounting.shared_of(vm2_java) == 0
        assert accounting.usage_of(vm1_java) == PAGE
        assert accounting.shared_of(vm1_java) == PAGE

    def test_owner_preference_flips_with_pids(self):
        _host, dump, _javas = build_env(pid_bases=(300, 400))
        accounting = owner_oriented_accounting(dump)
        vm1_java = next(
            u for u in accounting.java_users() if u.vm_name == "vm1"
        )
        assert accounting.shared_of(vm1_java) == 0

    def test_total_of_user_is_mapped_bytes(self):
        _host, dump, _javas = build_env()
        accounting = owner_oriented_accounting(dump)
        for user in accounting.java_users():
            assert accounting.total_of(user) == 2 * PAGE

    def test_category_cells(self):
        _host, dump, _javas = build_env()
        accounting = owner_oriented_accounting(dump)
        for user in accounting.java_users():
            cell = accounting.category_usage(
                user, MemoryCategory.JAVA_HEAP
            )
            assert cell.total_bytes == 2 * PAGE

    def test_kernel_pages_attributed_to_kernel_user(self):
        host = KvmHost(64 * MiB, seed=9)
        vm = host.create_guest("vm1", 4 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g"))
        kernel.boot(tiny_kernel_profile())
        dump = collect_system_dump(host, {"vm1": kernel})
        accounting = owner_oriented_accounting(dump)
        kernel_users = [
            u for u in accounting.users() if u.kind is UserKind.KERNEL
        ]
        assert len(kernel_users) == 1
        assert accounting.usage_of(kernel_users[0]) == (
            kernel.allocated_pages() * PAGE
        )

    def test_file_pages_attributed_to_mapping_process(self):
        """A page-cache page mapped by a process belongs to the process
        (that is how the Java code area is accounted)."""
        host = KvmHost(64 * MiB, seed=9)
        vm = host.create_guest("vm1", 4 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g"))
        java = kernel.spawn("java")
        code = java.mmap_file(
            BackingFile("jdk:lib", PAGE, PAGE), "java:code"
        )
        java.fault_file_pages(code)
        dump = collect_system_dump(host, {"vm1": kernel})
        accounting = owner_oriented_accounting(dump)
        java_user = accounting.java_users()[0]
        cell = accounting.category_usage(java_user, MemoryCategory.CODE)
        assert cell.usage_bytes == PAGE
        kernel_users = [
            u for u in accounting.users() if u.kind is UserKind.KERNEL
        ]
        assert not kernel_users  # nothing left over for the kernel

    def test_java_preferred_over_earlier_daemon(self):
        """A Java process owns shared frames even when a non-Java process
        has a smaller PID (the paper always picks a Java owner)."""
        host = KvmHost(64 * MiB, seed=9)
        vm = host.create_guest("vm1", 4 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g"), pid_base=100)
        daemon = kernel.spawn("sshd")  # pid 100
        java = kernel.spawn("java")  # pid 101
        anon_d = daemon.mmap_anon(PAGE, "sshd:heap")
        daemon.write_token(anon_d, 0, 55)
        heap = java.mmap_anon(PAGE, "java:heap")
        java.write_token(heap, 0, 55)
        host.ksm.run_until_converged()
        dump = collect_system_dump(host, {"vm1": kernel})
        accounting = owner_oriented_accounting(dump)
        java_user = accounting.java_users()[0]
        assert accounting.usage_of(java_user) == PAGE
        assert accounting.shared_of(java_user) == 0


class TestDistributionOriented:
    def test_pss_splits_shared_page(self):
        _host, dump, _javas = build_env()
        pss = distribution_oriented_accounting(dump)
        java_users = [
            u for u in pss.users() if u.kind is UserKind.JAVA
        ]
        for user in java_users:
            # 1 private page + half of the shared page.
            assert pss.pss_bytes[user] == pytest.approx(1.5 * PAGE)
            assert pss.rss_bytes[user] == 2 * PAGE

    def test_pss_conserves_physical_memory(self):
        _host, dump, _javas = build_env()
        usage = build_frame_usage(dump)
        pss = distribution_oriented_accounting(dump)
        assert pss.total_pss() == pytest.approx(len(usage) * PAGE)

    def test_policies_agree_on_totals(self):
        """Owner-oriented usage and PSS must sum to the same physical
        total — they only distribute it differently (§II.A)."""
        _host, dump, _javas = build_env()
        owner = owner_oriented_accounting(dump)
        pss = distribution_oriented_accounting(dump)
        assert owner.total_usage() == pytest.approx(pss.total_pss())
