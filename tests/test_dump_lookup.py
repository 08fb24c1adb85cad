"""Unit tests for the sorted-index dump lookups (vma_of, translate_gfn).

The searchsorted lookups must agree with a linear scan on clean dumps
and resolve deterministically on the overlapping records only a damaged
dump produces.
"""

import numpy as np
import pytest

from repro.core.dump import (
    GuestDump,
    GuestProcessDump,
    PageColumns,
    VmaRecord,
    collect_system_dump,
)
from repro.hypervisor.kvm import MemSlot

from tests.test_faults import build_host


def no_pages():
    return PageColumns(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    )


def process_with(vmas):
    return GuestProcessDump(
        pid=100, name="java", page_table=no_pages(), vmas=list(vmas)
    )


class TestVmaOf:
    def test_adjacent_vmas_resolve_to_the_right_one(self):
        """Back-to-back VMAs: the boundary vpn belongs to the second."""
        process = process_with([
            VmaRecord(start_vpn=10, npages=5, tag="a"),
            VmaRecord(start_vpn=15, npages=5, tag="b"),
        ])
        assert process.vma_of(10).tag == "a"
        assert process.vma_of(14).tag == "a"
        assert process.vma_of(15).tag == "b"
        assert process.vma_of(19).tag == "b"
        assert process.vma_of(20) is None
        assert process.vma_of(9) is None

    def test_overlapping_boundary_latest_start_wins(self):
        """Overlap (damaged dump): the latest-starting VMA wins."""
        process = process_with([
            VmaRecord(start_vpn=10, npages=10, tag="early"),
            VmaRecord(start_vpn=15, npages=10, tag="late"),
        ])
        assert process.vma_of(12).tag == "early"
        for vpn in range(15, 20):  # the overlapped stretch
            assert process.vma_of(vpn).tag == "late"
        assert process.vma_of(22).tag == "late"
        assert process.vma_of(25) is None

    def test_fully_nested_vma(self):
        process = process_with([
            VmaRecord(start_vpn=0, npages=100, tag="outer"),
            VmaRecord(start_vpn=40, npages=10, tag="inner"),
        ])
        assert process.vma_of(39).tag == "outer"
        assert process.vma_of(45).tag == "inner"
        assert process.vma_of(50).tag == "outer"

    def test_unsorted_input_is_handled(self):
        process = process_with([
            VmaRecord(start_vpn=50, npages=5, tag="high"),
            VmaRecord(start_vpn=0, npages=5, tag="low"),
        ])
        assert process.vma_of(2).tag == "low"
        assert process.vma_of(52).tag == "high"

    def test_cache_rebuilds_after_mutation(self):
        process = process_with([VmaRecord(start_vpn=0, npages=5, tag="a")])
        assert process.vma_of(3).tag == "a"
        process.vmas.append(VmaRecord(start_vpn=8, npages=4, tag="b"))
        assert process.vma_of(9).tag == "b"

    def test_agrees_with_linear_scan_on_real_dump(self):
        host, kernels = build_host(guests=1)
        dump = collect_system_dump(host, kernels)
        for process in dump.guest("vm1").processes:
            for vpn in process.page_table.keys.tolist():
                expected = next(
                    (
                        v for v in process.vmas
                        if v.start_vpn <= vpn < v.end_vpn
                    ),
                    None,
                )
                assert process.vma_of(vpn) == expected


def guest_with(slots, npages=100):
    return GuestDump(
        vm_name="vm1",
        vm_index=0,
        memslots=list(slots),
        processes=[],
        gfn_owners=no_pages(),
        owner_records=[],
        guest_npages=npages,
    )


class TestTranslateGfn:
    def test_adjacent_slots(self):
        guest = guest_with([
            MemSlot(base_gfn=0, npages=10, host_base_vpn=1000),
            MemSlot(base_gfn=10, npages=10, host_base_vpn=5000),
        ])
        assert guest.translate_gfn(0) == 1000
        assert guest.translate_gfn(9) == 1009
        assert guest.translate_gfn(10) == 5000
        assert guest.translate_gfn(19) == 5009
        assert guest.translate_gfn(20) is None

    def test_gap_between_slots(self):
        guest = guest_with([
            MemSlot(base_gfn=0, npages=10, host_base_vpn=1000),
            MemSlot(base_gfn=50, npages=10, host_base_vpn=5000),
        ])
        assert guest.translate_gfn(25) is None
        assert guest.translate_gfn(50) == 5000

    def test_overlapping_slots_latest_base_wins(self):
        guest = guest_with([
            MemSlot(base_gfn=0, npages=20, host_base_vpn=1000),
            MemSlot(base_gfn=10, npages=20, host_base_vpn=9000),
        ])
        assert guest.translate_gfn(5) == 1005
        assert guest.translate_gfn(15) == 9005  # overlap: later slot
        assert guest.translate_gfn(25) == 9015

    def test_invalidate_caches_after_slot_surgery(self):
        guest = guest_with([
            MemSlot(base_gfn=0, npages=10, host_base_vpn=1000),
        ])
        assert guest.translate_gfn(5) == 1005
        guest.memslots[0] = MemSlot(
            base_gfn=0, npages=10, host_base_vpn=7000
        )
        guest.invalidate_caches()
        assert guest.translate_gfn(5) == 7005

    def test_agrees_with_linear_scan_on_real_dump(self):
        host, kernels = build_host(guests=2)
        dump = collect_system_dump(host, kernels)
        for guest in dump.guests:
            for gfn in range(guest.guest_npages + 2):
                expected = next(
                    (
                        slot.to_host_vpn(gfn)
                        for slot in guest.memslots
                        if slot.contains(gfn)
                    ),
                    None,
                )
                assert guest.translate_gfn(gfn) == expected


class TestGuestLookupError:
    def test_keyerror_lists_available_names(self):
        host, kernels = build_host(guests=2)
        dump = collect_system_dump(host, kernels)
        with pytest.raises(KeyError) as excinfo:
            dump.guest("vm9")
        message = str(excinfo.value)
        assert "vm9" in message
        assert "vm1" in message and "vm2" in message


class TestGenerationCounter:
    """Regression tests for the stale-cache bug: an equal-length,
    in-place record replacement used to leave the sorted index stale
    because the rebuild condition only compared lengths."""

    def test_vma_equal_length_replacement_after_invalidate(self):
        process = process_with([
            VmaRecord(start_vpn=0, npages=5, tag="old"),
        ])
        assert process.vma_of(3).tag == "old"
        process.vmas[0] = VmaRecord(start_vpn=0, npages=5, tag="new")
        process.invalidate_caches()
        assert process.vma_of(3).tag == "new"

    def test_vma_moved_range_after_invalidate(self):
        process = process_with([
            VmaRecord(start_vpn=0, npages=5, tag="a"),
            VmaRecord(start_vpn=10, npages=5, tag="b"),
        ])
        assert process.vma_of(12).tag == "b"
        process.vmas[1] = VmaRecord(start_vpn=20, npages=5, tag="b")
        process.invalidate_caches()
        assert process.vma_of(12) is None
        assert process.vma_of(22).tag == "b"

    def test_repeated_invalidation_stays_fresh(self):
        process = process_with([
            VmaRecord(start_vpn=0, npages=5, tag="v0"),
        ])
        for generation in range(3):
            process.vmas[0] = VmaRecord(
                start_vpn=0, npages=5, tag=f"v{generation}"
            )
            process.invalidate_caches()
            assert process.vma_of(0).tag == f"v{generation}"

    def test_memslot_equal_length_replacement_after_invalidate(self):
        guest = guest_with([
            MemSlot(base_gfn=0, npages=10, host_base_vpn=1000),
            MemSlot(base_gfn=10, npages=10, host_base_vpn=2000),
        ])
        assert guest.translate_gfn(15) == 2005
        guest.memslots[1] = MemSlot(
            base_gfn=10, npages=10, host_base_vpn=9000
        )
        guest.invalidate_caches()
        assert guest.translate_gfn(15) == 9005
