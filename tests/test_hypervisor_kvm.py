"""Unit tests for the KVM process-VM hypervisor."""

import pytest

from repro.hypervisor.kvm import KvmHost, MemSlot
from repro.units import MiB

PAGE = 4096


@pytest.fixture
def host():
    return KvmHost(64 * MiB, seed=7)


class TestMemSlot:
    def test_contains(self):
        slot = MemSlot(base_gfn=0, npages=10, host_base_vpn=100)
        assert slot.contains(0)
        assert slot.contains(9)
        assert not slot.contains(10)

    def test_translate(self):
        slot = MemSlot(base_gfn=0, npages=10, host_base_vpn=100)
        assert slot.to_host_vpn(3) == 103

    def test_translate_outside_raises(self):
        slot = MemSlot(base_gfn=0, npages=10, host_base_vpn=100)
        with pytest.raises(ValueError):
            slot.to_host_vpn(10)


class TestGuestCreation:
    def test_create_guest(self, host):
        vm = host.create_guest("vm1", 4 * MiB)
        assert vm.guest_npages == 1024
        assert host.guest("vm1") is vm

    def test_duplicate_name_rejected(self, host):
        host.create_guest("vm1", MiB)
        with pytest.raises(ValueError):
            host.create_guest("vm1", MiB)

    def test_unknown_guest_raises(self, host):
        with pytest.raises(KeyError):
            host.guest("nope")

    def test_guest_memory_registered_with_ksm(self, host):
        vm = host.create_guest("vm1", MiB)
        assert vm.page_table in host.ksm.registered_tables

    def test_guests_have_disjoint_host_regions(self, host):
        a = host.create_guest("vm1", 4 * MiB)
        b = host.create_guest("vm2", 4 * MiB)
        a.write_gfn(0, 1)
        b.write_gfn(0, 2)
        vpn_a = a.device.translate_gfn(0)
        vpn_b = b.device.translate_gfn(0)
        assert vpn_a != vpn_b


class TestGuestMemoryAccess:
    def test_write_read_gfn(self, host):
        vm = host.create_guest("vm1", MiB)
        vm.write_gfn(3, 42)
        assert vm.read_gfn(3) == 42

    def test_untouched_gfn_unbacked(self, host):
        vm = host.create_guest("vm1", MiB)
        assert vm.read_gfn(3) is None
        assert vm.host_frame_of_gfn(3) is None

    def test_out_of_range_gfn_rejected(self, host):
        vm = host.create_guest("vm1", MiB)
        with pytest.raises(ValueError):
            vm.write_gfn(256, 1)  # 1 MiB = 256 pages

    def test_write_allocates_host_frame(self, host):
        vm = host.create_guest("vm1", MiB)
        before = host.physmem.frames_in_use
        vm.write_gfn(0, 1)
        assert host.physmem.frames_in_use == before + 1

    def test_release_gfn(self, host):
        vm = host.create_guest("vm1", MiB)
        vm.write_gfn(0, 1)
        before = host.physmem.frames_in_use
        vm.release_gfn(0)
        assert host.physmem.frames_in_use == before - 1
        vm.release_gfn(0)  # idempotent


class TestKvmVmDevice:
    def test_private_data_holds_memslots(self, host):
        """The paper's kernel module reads the slots from private_data."""
        vm = host.create_guest("vm1", MiB)
        slots = vm.device.private_data["memslots"]
        assert len(slots) == 1
        assert slots[0].npages == 256

    def test_translate_gfn_via_device(self, host):
        vm = host.create_guest("vm1", MiB)
        assert vm.device.translate_gfn(5) == vm.device.memslots[0].host_base_vpn + 5
        assert vm.device.translate_gfn(9999) is None


class TestOverhead:
    def test_overhead_outside_guest_region(self, host):
        vm = host.create_guest("vm1", MiB)
        vm.allocate_overhead(64 * 1024)
        assert vm.vm_overhead_bytes == 64 * 1024
        slot = vm.device.memslots[0]
        guest_vpns = set(vm.guest_memory_host_vpns())
        all_vpns = {vpn for vpn, _ in vm.page_table.entries()}
        overhead = all_vpns - guest_vpns
        assert len(overhead) == 16
        assert all(
            vpn >= slot.host_base_vpn + slot.npages for vpn in overhead
        )

    def test_overhead_is_private_content(self, host):
        a = host.create_guest("vm1", MiB)
        b = host.create_guest("vm2", MiB)
        a.allocate_overhead(PAGE)
        b.allocate_overhead(PAGE)
        tokens_a = {
            host.physmem.token_of(fid)
            for _vpn, fid in a.page_table.entries()
        }
        tokens_b = {
            host.physmem.token_of(fid)
            for _vpn, fid in b.page_table.entries()
        }
        assert tokens_a.isdisjoint(tokens_b)


class TestDestroyGuest:
    def test_destroy_releases_memory(self, host):
        vm = host.create_guest("vm1", MiB)
        vm.write_gfn(0, 1)
        vm.allocate_overhead(PAGE)
        host.destroy_guest(vm)
        assert host.physmem.frames_in_use == 0
        assert vm.page_table not in host.ksm.registered_tables
        assert host.guests == []

    def test_destroy_unknown_rejected(self, host):
        other = KvmHost(MiB).create_guest("x", MiB)
        with pytest.raises(ValueError):
            host.destroy_guest(other)


class TestHostKernel:
    def test_host_kernel_allocation(self):
        host = KvmHost(64 * MiB, host_kernel_bytes=MiB)
        assert host.host_kernel_bytes == MiB
        assert host.physmem.bytes_in_use == MiB

    def test_host_kernel_not_ksm_candidate(self):
        host = KvmHost(64 * MiB, host_kernel_bytes=MiB)
        assert host.ksm.registered_tables == ()

    def test_total_usage(self, host):
        vm = host.create_guest("vm1", MiB)
        vm.write_gfn(0, 1)
        assert host.total_physical_usage_bytes() == PAGE
