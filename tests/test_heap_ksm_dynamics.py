"""The §III.A dynamics: what merges, what un-merges, over time.

These tests drive two JVM guests tick by tick with the scanner
interleaved, checking the paper's temporal claims rather than a single
snapshot:

* GC-zeroed heap pages merge — and are "soon modified and divided" when
  allocation reuses them;
* NIO buffers stay merged across ticks (stable content);
* stacks never merge at all (rewritten faster than the scanner passes).
"""

import pytest

from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost
from repro.jvm.jvm import JavaVM
from repro.mem.content import ZERO_TOKEN
from repro.mem.physmem import STABLE
from repro.units import MiB

from tests.conftest import tiny_kernel_profile, tiny_workload

PAGE = 4096


@pytest.fixture
def pair():
    """Two identical JVM guests, started and warmed."""
    host = KvmHost(256 * MiB, seed=37)
    workload = tiny_workload(
        profile_overrides={
            "gc_zero_tail_bytes": 64 * 1024,
            "heap_touched_fraction": 0.9,
        },
        jvm_overrides={"heap_bytes": 2 * MiB},
    )
    jvms = []
    for name in ("vm1", "vm2"):
        vm = host.create_guest(name, 16 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g", name))
        kernel.boot(tiny_kernel_profile())
        jvm = JavaVM(
            kernel.spawn("java"),
            workload.jvm_config,
            workload.profile,
            workload.universe(),
            host.rng.derive("jvm", name),
        )
        jvm.startup()
        jvms.append(jvm)
    host.ksm.run_until_converged(max_passes=6)
    return host, jvms


def is_merged(physmem, fid):
    """Whether live frame ``fid`` is KSM-stable with several mappers."""
    assert physmem.is_live(fid), f"frame {fid} has been freed"
    return physmem.states[fid] == STABLE and physmem.refs[fid] > 1


def heap_shared_mappings(host, jvm):
    """Mappings of the JVM's heap pages that point at stable frames."""
    shared = 0
    vma = jvm.heap.areas[0].vma
    process = jvm.process
    for index in range(vma.npages):
        gfn = process.page_table.translate(vma.vpn_of(index))
        if gfn is None:
            continue
        fid = process.kernel.vm.host_frame_of_gfn(gfn)
        if fid is None:
            continue
        if is_merged(host.physmem, fid):
            shared += 1
    return shared


class TestHeapDynamics:
    def test_zero_pages_merge_then_divide(self, pair):
        """The full §III.A cycle on one page population."""
        host, jvms = pair
        # After convergence: the GC's zeroed tails are merged.
        shared_before = heap_shared_mappings(host, jvms[0])
        assert shared_before > 0
        # One tick of allocation: most of the zeroed space is reused and
        # the merged pages divide (copy-on-write break).
        for jvm in jvms:
            jvm.tick()
        shared_after_tick = heap_shared_mappings(host, jvms[0])
        assert shared_after_tick < shared_before

    def test_heap_sharing_stays_marginal_at_steady_state(self, pair):
        host, jvms = pair
        for _ in range(3):
            for jvm in jvms:
                jvm.tick()
            host.ksm.run_for_ms(2_000)
        heap_area = jvms[0].heap.areas[0]
        shared = heap_shared_mappings(host, jvms[0])
        assert shared / heap_area.npages < 0.15

    def test_nio_stays_merged_across_ticks(self, pair):
        host, jvms = pair
        nio = jvms[0].work.nio_vma
        process = jvms[0].process

        def nio_shared():
            count = 0
            for index in range(nio.npages):
                gfn = process.page_table.translate(nio.vpn_of(index))
                fid = process.kernel.vm.host_frame_of_gfn(gfn)
                if is_merged(host.physmem, fid):
                    count += 1
            return count

        assert nio_shared() == nio.npages
        for _ in range(2):
            for jvm in jvms:
                jvm.tick()
            host.ksm.run_for_ms(1_000)
        assert nio_shared() == nio.npages

    def test_stacks_never_merge(self, pair):
        host, jvms = pair
        for _ in range(3):
            for jvm in jvms:
                jvm.tick()
            host.ksm.run_for_ms(1_000)
        process = jvms[0].process
        for vma in jvms[0].stacks.stacks:
            for index in range(vma.npages):
                gfn = process.page_table.translate(vma.vpn_of(index))
                if gfn is None:
                    continue
                fid = process.kernel.vm.host_frame_of_gfn(gfn)
                assert not is_merged(host.physmem, fid)
