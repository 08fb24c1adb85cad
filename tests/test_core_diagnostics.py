"""Unit tests for the dump diagnostics."""

import pytest

from repro.core.categories import MemoryCategory
from repro.core.diagnostics import (
    category_sharing_summary,
    cross_vm_sharing_matrix,
    sharing_histogram,
    zero_page_census,
)
from repro.core.dump import collect_system_dump
from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost
from repro.mem.content import ZERO_TOKEN
from repro.units import MiB

from tests.oracle import (
    build_frame_usage,
    dict_category_sharing_summary,
    dict_cross_vm_sharing_matrix,
    dict_sharing_histogram,
    dict_zero_page_census,
)

PAGE = 4096


@pytest.fixture
def env():
    """Three guests: a page shared by all, one by vm1+vm2, zeros, privates."""
    host = KvmHost(64 * MiB, seed=21)
    kernels = {}
    for name in ("vm1", "vm2", "vm3"):
        vm = host.create_guest(name, 4 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g", name))
        kernels[name] = kernel
        java = kernel.spawn("java")
        heap = java.mmap_anon(8 * PAGE, "java:heap")
        java.write_token(heap, 0, 77)  # shared by all three
        if name != "vm3":
            java.write_token(heap, 1, 88)  # shared by vm1+vm2
        java.write_token(heap, 2, ZERO_TOKEN)  # zeros merge globally
        private_token = 1000 + int(name[-1])  # unique per VM
        java.write_token(heap, 3, private_token)
    host.ksm.run_until_converged()
    dump = collect_system_dump(host, kernels)
    return host, dump


class TestHistogram:
    def test_buckets(self, env):
        _host, dump = env
        histogram = sharing_histogram(dump)
        assert histogram.get(3, 0) >= 2  # the 77-frame and the zero frame
        assert histogram.get(2, 0) >= 1  # the 88-frame
        assert histogram.get(1, 0) >= 1  # private pages

    def test_total_matches_frames(self, env):
        _host, dump = env
        histogram = sharing_histogram(dump)
        assert sum(histogram.values()) == len(build_frame_usage(dump))


class TestMatrix:
    def test_pairwise_sharing(self, env):
        _host, dump = env
        matrix = cross_vm_sharing_matrix(dump)
        # vm1-vm2 share the 77-frame, the 88-frame and the zero frame.
        assert matrix[("vm1", "vm2")] == 3 * PAGE
        # vm1-vm3 share 77 and the zero frame only.
        assert matrix[("vm1", "vm3")] == 2 * PAGE
        assert matrix[("vm2", "vm3")] == 2 * PAGE

    def test_empty_world(self):
        host = KvmHost(16 * MiB, seed=1)
        vm = host.create_guest("vm1", MiB)
        kernel = GuestKernel(vm, host.rng.derive("g"))
        dump = collect_system_dump(host, {"vm1": kernel})
        assert cross_vm_sharing_matrix(dump) == {}


class TestZeroCensus:
    def test_counts(self, env):
        _host, dump = env
        census = zero_page_census(dump)
        assert census.zero_frames == 1  # merged into one frame
        assert census.zero_mappings == 3
        assert census.shared_nonzero_frames >= 2
        assert 0 < census.zero_fraction_of_frames < 1

    def test_empty(self):
        host = KvmHost(16 * MiB, seed=1)
        vm = host.create_guest("vm1", MiB)
        kernel = GuestKernel(vm, host.rng.derive("g"))
        dump = collect_system_dump(host, {"vm1": kernel})
        census = zero_page_census(dump)
        assert census.total_frames == 0
        assert census.zero_fraction_of_frames == 0.0


class TestCategorySummary:
    def test_heap_sharing_summarised(self, env):
        _host, dump = env
        summary = category_sharing_summary(dump)
        total, shared = summary[MemoryCategory.JAVA_HEAP]
        # vm1 and vm2 map 4 heap pages each, vm3 maps 3.
        assert total == 11 * PAGE
        # Shared: the 77-frame (3 mappings), 88-frame (2), zero frame (3).
        assert shared == 8 * PAGE


#: Each report and its per-frame form in tests/oracle.py.
REPORTS = [
    (sharing_histogram, dict_sharing_histogram),
    (cross_vm_sharing_matrix, dict_cross_vm_sharing_matrix),
    (zero_page_census, dict_zero_page_census),
    (category_sharing_summary, dict_category_sharing_summary),
]


def empty_dump():
    host = KvmHost(16 * MiB, seed=1)
    vm = host.create_guest("vm1", MiB)
    kernel = GuestKernel(vm, host.rng.derive("g"))
    return collect_system_dump(host, {"vm1": kernel})


@pytest.mark.parametrize(
    "report, oracle", REPORTS, ids=[r.__name__ for r, _ in REPORTS]
)
class TestMatchesPerFrameForm:
    def test_shared_world(self, env, report, oracle):
        _host, dump = env
        assert report(dump) == oracle(dump)

    def test_empty_world(self, report, oracle):
        dump = empty_dump()
        assert report(dump) == oracle(dump)

    def test_lost_tokens(self, report, oracle):
        from repro.faults import FaultKind, FaultPlan, FaultRates

        from tests.test_faults import build_host

        host, kernels = build_host()
        plan = FaultPlan(5, FaultRates.only(FaultKind.MISSING_FRAME_TOKEN))
        dump = collect_system_dump(host, kernels, faults=plan)
        assert not dump.frames.has_token.all()
        assert report(dump) == oracle(dump)
