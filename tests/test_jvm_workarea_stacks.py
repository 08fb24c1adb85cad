"""Unit tests for the JVM work area and thread stacks."""

import pytest

from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost
from repro.jvm.stacks import ThreadStacks
from repro.jvm.workarea import JvmWorkArea, TAG_NIO, TAG_PRIVATE, TAG_SLACK
from repro.mem.content import ZERO_TOKEN
from repro.units import KiB, MiB

PAGE = 4096


def make_process(vm_name="vm1", seed=3, host=None):
    if host is None:
        host = KvmHost(128 * MiB, seed=seed)
    vm = host.create_guest(vm_name, 16 * MiB)
    kernel = GuestKernel(vm, host.rng.derive("g", vm_name))
    return host, kernel.spawn("java")


def make_workarea(process, host, benchmark="bench:mw"):
    return JvmWorkArea(
        process,
        host.rng.derive("jvm", process.kernel.vm.name),
        benchmark_id=benchmark,
        nio_bytes=4 * PAGE,
        zero_slack_bytes=4 * PAGE,
        private_bytes=8 * PAGE,
    )


class TestWorkArea:
    def test_initialize_touches_everything(self):
        host, process = make_process()
        work = make_workarea(process, host)
        work.initialize()
        assert work.resident_bytes() == 16 * PAGE
        assert process.resident_bytes() == 16 * PAGE

    def test_double_initialize_rejected(self):
        host, process = make_process()
        work = make_workarea(process, host)
        work.initialize()
        with pytest.raises(RuntimeError):
            work.initialize()

    def test_tick_requires_initialize(self):
        host, process = make_process()
        work = make_workarea(process, host)
        with pytest.raises(RuntimeError):
            work.tick()

    def test_slack_pages_are_zero(self):
        """Unused malloc-arena blocks and bulk-allocated-unused structures
        are zero pages (the paper's §III.A sharing sources)."""
        host, process = make_process()
        work = make_workarea(process, host)
        work.initialize()
        for page in range(work.slack_vma.npages):
            assert process.read_token(work.slack_vma, page) == ZERO_TOKEN

    def test_nio_identical_across_vms_same_benchmark(self):
        """NIO buffers mirror the driver's data: identical across VMs
        running the same benchmark."""
        host = KvmHost(256 * MiB, seed=3)
        tokens = []
        for vm_name in ("vm1", "vm2"):
            _h, process = make_process(vm_name, host=host)
            work = make_workarea(process, host)
            work.initialize()
            tokens.append(
                [
                    process.read_token(work.nio_vma, page)
                    for page in range(work.nio_vma.npages)
                ]
            )
        assert tokens[0] == tokens[1]

    def test_nio_differs_across_benchmarks(self):
        host = KvmHost(256 * MiB, seed=3)
        tokens = []
        for vm_name, benchmark in (("vm1", "daytrader:mw"),
                                   ("vm2", "tpcw:mw")):
            _h, process = make_process(vm_name, host=host)
            work = make_workarea(process, host, benchmark=benchmark)
            work.initialize()
            tokens.append(
                [
                    process.read_token(work.nio_vma, page)
                    for page in range(work.nio_vma.npages)
                ]
            )
        assert tokens[0] != tokens[1]

    def test_private_pages_differ_across_vms(self):
        host = KvmHost(256 * MiB, seed=3)
        sets = []
        for vm_name in ("vm1", "vm2"):
            _h, process = make_process(vm_name, host=host)
            work = make_workarea(process, host)
            work.initialize()
            sets.append(
                {
                    process.read_token(work.private_vma, page)
                    for page in range(work.private_vma.npages)
                }
            )
        assert sets[0].isdisjoint(sets[1])

    def test_tick_churns_part_of_private(self):
        host, process = make_process()
        work = make_workarea(process, host)
        work.initialize()
        before = [
            process.read_token(work.private_vma, page)
            for page in range(work.private_vma.npages)
        ]
        work.tick()
        after = [
            process.read_token(work.private_vma, page)
            for page in range(work.private_vma.npages)
        ]
        changed = sum(1 for a, b in zip(before, after) if a != b)
        assert 0 < changed < work.private_vma.npages

    def test_tick_preserves_nio_and_slack(self):
        host, process = make_process()
        work = make_workarea(process, host)
        work.initialize()
        work.tick()
        assert all(
            process.read_token(work.slack_vma, page) == ZERO_TOKEN
            for page in range(work.slack_vma.npages)
        )


class TestStacks:
    def test_initialize_touches_stacks(self):
        host, process = make_process()
        stacks = ThreadStacks(
            process, host.rng.derive("jvm"), thread_count=3,
            stack_bytes=4 * PAGE,
        )
        stacks.initialize()
        assert len(stacks.stacks) == 3
        assert process.resident_bytes() == 12 * PAGE

    def test_tick_rewrites_active_depth(self):
        host, process = make_process()
        stacks = ThreadStacks(
            process, host.rng.derive("jvm"), thread_count=1,
            stack_bytes=4 * PAGE, active_fraction=0.5,
        )
        stacks.initialize()
        vma = stacks.stacks[0]
        before = [process.read_token(vma, page) for page in range(4)]
        stacks.tick()
        after = [process.read_token(vma, page) for page in range(4)]
        assert after[:2] != before[:2]  # active frames rewritten
        assert after[2:] == before[2:]  # deep frames untouched

    def test_zero_threads_rejected(self):
        host, process = make_process()
        with pytest.raises(ValueError):
            ThreadStacks(process, host.rng.derive("jvm"), 0, PAGE)

    def test_stack_tokens_process_unique(self):
        host = KvmHost(256 * MiB, seed=3)
        sets = []
        for vm_name in ("vm1", "vm2"):
            _h, process = make_process(vm_name, host=host)
            stacks = ThreadStacks(
                process, host.rng.derive("jvm", vm_name), 2, 2 * PAGE
            )
            stacks.initialize()
            tokens = {
                process.kernel.vm.read_gfn(gfn)
                for _vpn, gfn in process.page_table.entries()
            }
            sets.append(tokens)
        assert sets[0].isdisjoint(sets[1])

    def test_resident_bytes(self):
        host, process = make_process()
        stacks = ThreadStacks(
            process, host.rng.derive("jvm"), 2, 2 * PAGE
        )
        stacks.initialize()
        assert stacks.resident_bytes() == 4 * PAGE
