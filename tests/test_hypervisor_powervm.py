"""Unit tests for the PowerVM system-VM hypervisor."""

import pytest

from repro.hypervisor.powervm import PowerVmHost
from repro.units import MiB

PAGE = 4096


@pytest.fixture
def host():
    return PowerVmHost(256 * MiB, seed=7)


class TestGuests:
    def test_create_guest(self, host):
        lpar = host.create_guest("lpar1", 4 * MiB)
        assert lpar.guest_npages == 1024
        assert host.guest("lpar1") is lpar

    def test_duplicate_rejected(self, host):
        host.create_guest("lpar1", MiB)
        with pytest.raises(ValueError):
            host.create_guest("lpar1", MiB)

    def test_write_read(self, host):
        lpar = host.create_guest("lpar1", MiB)
        lpar.write_gfn(5, 42)
        assert lpar.read_gfn(5) == 42
        assert lpar.read_gfn(6) is None

    def test_gfn_bounds(self, host):
        lpar = host.create_guest("lpar1", MiB)
        with pytest.raises(ValueError):
            lpar.write_gfn(256, 1)

    def test_direct_mapping_two_layers(self, host):
        """System-VM style: gfn maps straight to a host frame."""
        lpar = host.create_guest("lpar1", MiB)
        lpar.write_gfn(0, 9)
        fid = lpar.host_frame_of_gfn(0)
        assert host.physmem.token_of(fid) == 9


class TestPageSharing:
    def test_identical_pages_merge(self, host):
        a = host.create_guest("lpar1", MiB)
        b = host.create_guest("lpar2", MiB)
        a.write_gfn(0, 5)
        b.write_gfn(0, 5)
        merged = host.run_page_sharing()
        assert merged == 1
        assert a.host_frame_of_gfn(0) == b.host_frame_of_gfn(0)
        assert host.monitor_total_usage_bytes() == PAGE

    def test_different_pages_untouched(self, host):
        a = host.create_guest("lpar1", MiB)
        b = host.create_guest("lpar2", MiB)
        a.write_gfn(0, 5)
        b.write_gfn(0, 6)
        assert host.run_page_sharing() == 0

    def test_dedicated_memory_excluded(self, host):
        """LPARs with dedicated physical memory do not share (§V.B)."""
        a = host.create_guest("lpar1", MiB)
        b = host.create_guest("lpar2", MiB, dedicated_memory=True)
        a.write_gfn(0, 5)
        b.write_gfn(0, 5)
        assert host.run_page_sharing() == 0

    def test_write_after_sharing_breaks_cow(self, host):
        a = host.create_guest("lpar1", MiB)
        b = host.create_guest("lpar2", MiB)
        a.write_gfn(0, 5)
        b.write_gfn(0, 5)
        host.run_page_sharing()
        a.write_gfn(0, 7)
        assert b.read_gfn(0) == 5
        assert a.host_frame_of_gfn(0) != b.host_frame_of_gfn(0)

    def test_sharing_is_idempotent(self, host):
        a = host.create_guest("lpar1", MiB)
        b = host.create_guest("lpar2", MiB)
        a.write_gfn(0, 5)
        b.write_gfn(0, 5)
        host.run_page_sharing()
        assert host.run_page_sharing() == 0

    def test_three_way_merge(self, host):
        guests = [host.create_guest(f"lpar{i}", MiB) for i in range(3)]
        for lpar in guests:
            lpar.write_gfn(0, 5)
        merged = host.run_page_sharing()
        assert merged == 2
        assert host.monitor_total_usage_bytes() == PAGE

    def test_monitoring_reports_usage(self, host):
        a = host.create_guest("lpar1", MiB)
        a.write_gfn(0, 1)
        a.write_gfn(1, 2)
        assert host.monitor_total_usage_bytes() == 2 * PAGE
