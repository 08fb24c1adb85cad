"""Unit tests for guest processes: VMAs, faults, writes, teardown."""

import pytest

from repro.guestos.kernel import GuestKernel, OwnerKind
from repro.guestos.pagecache import BackingFile
from repro.hypervisor.kvm import KvmHost
from repro.units import MiB

PAGE = 4096


@pytest.fixture
def env():
    host = KvmHost(64 * MiB, seed=3)
    vm = host.create_guest("vm1", 4 * MiB)
    kernel = GuestKernel(vm, host.rng.derive("g"))
    process = kernel.spawn("proc")
    return host, vm, kernel, process


class TestAnonMappings:
    def test_mmap_reserves_without_backing(self, env):
        _h, _vm, _k, process = env
        vma = process.mmap_anon(3 * PAGE, "heap")
        assert vma.npages == 3
        assert process.resident_bytes() == 0

    def test_write_faults_page_in(self, env):
        _h, _vm, kernel, process = env
        vma = process.mmap_anon(2 * PAGE, "heap")
        process.write_token(vma, 1, 42)
        assert process.read_token(vma, 1) == 42
        assert process.read_token(vma, 0) is None
        assert process.resident_bytes() == PAGE
        gfn = process.page_table.translate(vma.vpn_of(1))
        owner = kernel.owner_of(gfn)
        assert owner.kind is OwnerKind.PROCESS_ANON
        assert owner.pid == process.pid
        assert owner.tag == "heap"

    def test_write_tokens_bulk(self, env):
        _h, _vm, _k, process = env
        vma = process.mmap_anon(4 * PAGE, "heap")
        process.write_tokens(vma, [1, 2, 3], start_page=1)
        assert [process.read_token(vma, i) for i in range(4)] == [
            None, 1, 2, 3,
        ]

    def test_write_overflow_rejected(self, env):
        _h, _vm, _k, process = env
        vma = process.mmap_anon(2 * PAGE, "heap")
        with pytest.raises(ValueError):
            process.write_tokens(vma, [1, 2, 3])

    def test_page_index_bounds(self, env):
        _h, _vm, _k, process = env
        vma = process.mmap_anon(2 * PAGE, "heap")
        with pytest.raises(IndexError):
            process.write_token(vma, 2, 1)

    def test_empty_mapping_rejected(self, env):
        _h, _vm, _k, process = env
        with pytest.raises(ValueError):
            process.mmap_anon(0, "x")

    def test_vmas_do_not_overlap(self, env):
        _h, _vm, _k, process = env
        a = process.mmap_anon(PAGE, "a")
        b = process.mmap_anon(PAGE, "b")
        assert a.end_vpn <= b.start_vpn


class TestFileMappings:
    def test_fault_pulls_from_page_cache(self, env):
        _h, _vm, kernel, process = env
        backing = BackingFile("img:/bin/tool", 2 * PAGE, PAGE)
        vma = process.mmap_file(backing, "text")
        process.fault_file_pages(vma)
        assert process.resident_bytes() == 2 * PAGE
        assert kernel.page_cache.cached_pages == 2
        assert process.read_token(vma, 0) == backing.page_token(0)

    def test_two_processes_share_cache_gfn(self, env):
        _h, _vm, kernel, process = env
        other = kernel.spawn("proc2")
        backing = BackingFile("img:/bin/tool", PAGE, PAGE)
        vma1 = process.mmap_file(backing, "text")
        vma2 = other.mmap_file(backing, "text")
        process.fault_file_pages(vma1)
        other.fault_file_pages(vma2)
        gfn1 = process.page_table.translate(vma1.start_vpn)
        gfn2 = other.page_table.translate(vma2.start_vpn)
        assert gfn1 == gfn2
        assert kernel.page_cache.mapcount("img:/bin/tool", 0) == 2

    def test_partial_fault(self, env):
        _h, _vm, _k, process = env
        backing = BackingFile("img:/lib/big", 4 * PAGE, PAGE)
        vma = process.mmap_file(backing, "text")
        process.fault_file_pages(vma, start_page=1, count=2)
        assert process.resident_bytes() == 2 * PAGE

    def test_write_to_file_mapping_rejected(self, env):
        _h, _vm, _k, process = env
        backing = BackingFile("img:/bin/tool", PAGE, PAGE)
        vma = process.mmap_file(backing, "text")
        with pytest.raises(ValueError):
            process.write_token(vma, 0, 1)

    def test_mapping_beyond_eof_rejected(self, env):
        _h, _vm, _k, process = env
        backing = BackingFile("img:/bin/tool", PAGE, PAGE)
        with pytest.raises(ValueError):
            process.mmap_file(backing, "text", offset_pages=1)

    def test_fault_non_file_vma_rejected(self, env):
        _h, _vm, _k, process = env
        vma = process.mmap_anon(PAGE, "heap")
        with pytest.raises(ValueError):
            process.fault_file_pages(vma)


class TestTeardown:
    def test_munmap_anon_frees_gfns(self, env):
        _h, _vm, kernel, process = env
        vma = process.mmap_anon(2 * PAGE, "heap")
        process.write_token(vma, 0, 1)
        gfn = process.page_table.translate(vma.start_vpn)
        process.munmap(vma)
        assert kernel.owner_of(gfn).kind is OwnerKind.FREE
        assert process.resident_bytes() == 0
        assert vma not in process.vmas

    def test_munmap_file_keeps_page_cache(self, env):
        _h, _vm, kernel, process = env
        backing = BackingFile("img:/bin/tool", PAGE, PAGE)
        vma = process.mmap_file(backing, "text")
        process.fault_file_pages(vma)
        process.munmap(vma)
        assert kernel.page_cache.cached_pages == 1
        assert kernel.page_cache.mapcount("img:/bin/tool", 0) == 0

    def test_munmap_foreign_vma_rejected(self, env):
        _h, _vm, kernel, process = env
        other = kernel.spawn("proc2")
        vma = other.mmap_anon(PAGE, "x")
        with pytest.raises(ValueError):
            process.munmap(vma)

    def test_release_all_kills_process(self, env):
        _h, _vm, _k, process = env
        vma = process.mmap_anon(PAGE, "heap")
        process.write_token(vma, 0, 1)
        process.release_all()
        assert not process.alive
        with pytest.raises(RuntimeError):
            process.mmap_anon(PAGE, "y")


class TestIntrospection:
    def test_vma_of_vpn(self, env):
        _h, _vm, _k, process = env
        vma = process.mmap_anon(2 * PAGE, "heap")
        assert process.vma_of_vpn(vma.start_vpn) is vma
        assert process.vma_of_vpn(vma.start_vpn + 5_000) is None

    def test_vma_by_tag(self, env):
        _h, _vm, _k, process = env
        process.mmap_anon(PAGE, "a")
        process.mmap_anon(PAGE, "b")
        process.mmap_anon(PAGE, "a")
        assert len(process.vma_by_tag("a")) == 2
