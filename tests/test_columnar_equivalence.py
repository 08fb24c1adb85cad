"""Equivalence suite: the columnar pipeline vs the dict oracle.

The columnar pipeline's entire contract is "same answers, faster".
Hypothesis generates random multi-guest worlds — including damaged
dumps with overlapping VMAs, overlapping memslots and quarantined
guests — and asserts that the production accounting and the per-frame
dict aggregation of :mod:`tests.oracle` produce byte-identical figure
renderings and canonical JSON.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accounting import (
    distribution_oriented_accounting,
    owner_oriented_accounting,
)
from repro.core.breakdown import java_breakdown, vm_breakdown
from repro.core.dump import VmaRecord, collect_system_dump
from repro.core.report import render_java_breakdown, render_vm_breakdown
from repro.faults import FaultPlan
from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost, MemSlot
from repro.units import MiB

from tests.oracle import dict_distribution_accounting, dict_owner_accounting
from tests.test_faults import build_host

PAGE = 4096


@st.composite
def worlds(draw):
    """A random little multi-guest world (see accounting properties)."""
    n_guests = draw(st.integers(1, 3))
    guests = []
    for _ in range(n_guests):
        n_processes = draw(st.integers(1, 3))
        processes = []
        for _ in range(n_processes):
            is_java = draw(st.booleans())
            pages = draw(
                st.lists(
                    st.tuples(st.integers(0, 5), st.integers(1, 4)),
                    min_size=0,
                    max_size=6,
                    unique_by=lambda page: page[0],
                )
            )
            processes.append((is_java, pages))
        kernel_pages = draw(st.integers(0, 4))
        guests.append((processes, kernel_pages))
    return guests


def build_world(spec, seed=17):
    host = KvmHost(256 * MiB, seed=seed)
    kernels = {}
    for guest_index, (processes, kernel_pages) in enumerate(spec):
        name = f"vm{guest_index}"
        vm = host.create_guest(name, 4 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g", name))
        kernels[name] = kernel
        from repro.guestos.kernel import OwnerKind, PageOwner

        for page_index in range(kernel_pages):
            gfn = kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL, tag="slab"))
            vm.write_gfn(gfn, 1000 + guest_index * 100 + page_index)
        for process_index, (is_java, pages) in enumerate(processes):
            process = kernel.spawn(
                "java" if is_java else f"daemon{process_index}"
            )
            if not pages:
                continue
            tag = "java:heap" if is_java else "daemon:heap"
            vma = process.mmap_anon(8 * PAGE, tag)
            for slot, token in pages:
                process.write_token(vma, slot, token)
    host.ksm.run_until_converged(max_passes=8)
    return collect_system_dump(host, kernels)


def breakdown_fingerprint(accounting):
    """Canonical JSON + rendered-figure strings for one accounting."""
    vm = vm_breakdown(accounting)
    java = java_breakdown(accounting)
    return (
        vm.to_json(),
        java.to_json(),
        render_vm_breakdown(vm, "Fig. 2"),
        render_java_breakdown(java, "Fig. 3"),
    )


def assert_matches_oracle(dump):
    reference = breakdown_fingerprint(dict_owner_accounting(dump))
    assert breakdown_fingerprint(owner_oriented_accounting(dump)) == reference
    return reference


class TestRandomWorlds:
    @given(spec=worlds())
    @settings(max_examples=25, deadline=None)
    def test_breakdowns_byte_identical(self, spec):
        dump = build_world(spec)
        assert_matches_oracle(dump)

    @given(spec=worlds())
    @settings(max_examples=15, deadline=None)
    def test_distribution_rss_exact_pss_close(self, spec):
        dump = build_world(spec)
        reference = dict_distribution_accounting(dump)
        got = distribution_oriented_accounting(dump)
        assert got.rss_bytes == reference.rss_bytes
        assert set(got.pss_bytes) == set(reference.pss_bytes)
        for user, expected in reference.pss_bytes.items():
            assert got.pss_bytes[user] == pytest.approx(
                expected, rel=1e-9, abs=1e-6
            ), user


class TestDamagedDumps:
    def overlapping_dump(self):
        """A clean dump, then surgically overlapped VMAs and memslots."""
        host, kernels = build_host(guests=2)
        dump = collect_system_dump(host, kernels)
        process = dump.guest("vm1").processes[0]
        if process.vmas:
            first = process.vmas[0]
            process.vmas.append(
                VmaRecord(
                    start_vpn=first.start_vpn + 1,
                    npages=max(2, first.npages),
                    tag="anon:damage",
                )
            )
            process.invalidate_caches()
        guest = dump.guest("vm2")
        if guest.memslots:
            slot = guest.memslots[0]
            guest.memslots.append(
                MemSlot(
                    base_gfn=slot.base_gfn + 1,
                    npages=slot.npages,
                    host_base_vpn=slot.host_base_vpn + 1,
                )
            )
            guest.invalidate_caches()
        return dump

    def test_overlapping_vmas_and_memslots(self):
        dump = self.overlapping_dump()
        assert_matches_oracle(dump)

    def test_quarantined_guests(self):
        # Seed 1337 quarantines at least one VM at the default rates
        # (the resilient-collection smoke seed).
        host, kernels = build_host()
        dump = collect_system_dump(host, kernels, faults=FaultPlan(1337))
        assert dump.collection.quarantined_vms
        reference = assert_matches_oracle(dump)
        # Damage is visible (nonzero unattributable) and preserved.
        assert '"unattributable_bytes":0' not in (
            reference[0].replace(" ", "")
        ) or dump.collection.quarantined_vms

    @pytest.mark.parametrize("rate", [0.3, 0.7])
    def test_faulted_collections_agree(self, rate):
        from repro.faults import FaultRates

        host, kernels = build_host(seed=23)
        plan = FaultPlan(41, rates=FaultRates.uniform(rate))
        dump = collect_system_dump(host, kernels, faults=plan)
        assert_matches_oracle(dump)
