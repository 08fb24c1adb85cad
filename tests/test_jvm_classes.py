"""Unit tests for class-metadata loading, segments, and cache attachment."""

import pytest

from repro.guestos.kernel import GuestKernel
from repro.guestos.malloc import MallocModel
from repro.hypervisor.kvm import KvmHost
from repro.jvm.classes import ClassMetadata, TAG_CACHE, TAG_SEGMENTS
from repro.jvm.sharedcache import SharedClassCache
from repro.units import MiB
from repro.workloads.classsets import ClassUniverse

from tests.conftest import tiny_profile

PAGE = 4096


def make_env(vm_name="vm1", seed=3, host=None):
    if host is None:
        host = KvmHost(128 * MiB, seed=seed)
    vm = host.create_guest(vm_name, 32 * MiB)
    kernel = GuestKernel(vm, host.rng.derive("g", vm_name))
    process = kernel.spawn("java")
    rng = host.rng.derive("jvm", vm_name)
    malloc = MallocModel(process, rng)
    return host, process, malloc, rng


@pytest.fixture
def universe():
    return ClassUniverse(tiny_profile())


class TestPrivateLoading:
    def test_load_allocates_segments(self, universe):
        _host, process, malloc, rng = make_env()
        metadata = ClassMetadata(process, malloc, rng)
        metadata.load_classes(universe.all_classes)
        assert metadata.loaded_count == len(universe)
        assert metadata.loaded_privately == len(universe)
        assert metadata.loaded_from_cache == 0
        assert metadata.segment_count >= 1
        assert process.resident_bytes() > 0

    def test_reload_is_idempotent(self, universe):
        _host, process, malloc, rng = make_env()
        metadata = ClassMetadata(process, malloc, rng)
        classes = universe.all_classes[:5]
        metadata.load_classes(classes)
        before = process.resident_bytes()
        metadata.load_classes(classes)
        assert metadata.loaded_count == 5
        assert process.resident_bytes() == before

    def test_segment_pages_tagged(self, universe):
        _host, process, malloc, rng = make_env()
        metadata = ClassMetadata(process, malloc, rng)
        metadata.load_classes(universe.all_classes[:10])
        tags = {vma.tag for vma in process.vmas}
        assert TAG_SEGMENTS in tags or any(
            TAG_SEGMENTS in tag for tag in tags
        )

    def test_private_layouts_differ_across_processes(self, universe):
        """Same classes, different processes: different page contents —
        the paper's core diagnosis."""
        host = KvmHost(256 * MiB, seed=3)
        page_token_sets = []
        for vm_name in ("vm1", "vm2"):
            _h, process, malloc, rng = make_env(vm_name, host=host)
            metadata = ClassMetadata(process, malloc, rng)
            order = universe.perturbed_order(
                universe.all_classes, rng, who=vm_name
            )
            metadata.load_classes(order)
            tokens = {
                process.kernel.vm.read_gfn(gfn)
                for _vpn, gfn in process.page_table.entries()
            }
            page_token_sets.append(tokens)
        overlap = page_token_sets[0] & page_token_sets[1]
        union = page_token_sets[0] | page_token_sets[1]
        assert len(overlap) / len(union) < 0.05


class TestCacheLoading:
    def make_cache(self, universe, process):
        cache = SharedClassCache("c", 4 * MiB, PAGE, creator_id="image")
        cache.populate(universe.all_classes)
        cache.seal()
        backing = cache.as_backing_file("scc-file")
        vma = process.mmap_file(backing, TAG_CACHE)
        return cache, vma

    def test_cached_classes_fault_cache_pages(self, universe):
        _host, process, malloc, rng = make_env()
        cache, vma = self.make_cache(universe, process)
        metadata = ClassMetadata(
            process, malloc, rng, cache=cache, cache_vma=vma
        )
        metadata.load_classes(universe.all_classes)
        assert metadata.loaded_from_cache == len(universe.cacheable_classes())
        assert metadata.loaded_privately == len(universe) - len(
            universe.cacheable_classes()
        )
        assert metadata.faulted_cache_pages > 0

    def test_cache_pages_match_file_content(self, universe):
        _host, process, malloc, rng = make_env()
        cache, vma = self.make_cache(universe, process)
        metadata = ClassMetadata(
            process, malloc, rng, cache=cache, cache_vma=vma
        )
        metadata.load_classes(universe.all_classes)
        cls = universe.cacheable_classes()[0]
        page = next(iter(cache.page_span_of(cls.name)))
        assert process.read_token(vma, page) == vma.backing.page_token(page)

    def test_cache_without_vma_rejected(self, universe):
        _host, process, malloc, rng = make_env()
        cache = SharedClassCache("c", 4 * MiB, PAGE, creator_id="x")
        with pytest.raises(ValueError):
            ClassMetadata(process, malloc, rng, cache=cache, cache_vma=None)

    def test_two_vms_same_cache_file_identical_pages(self, universe):
        """The technique: same cache content => identical faulted pages
        across VMs."""
        host = KvmHost(256 * MiB, seed=3)
        cache = SharedClassCache("c", 4 * MiB, PAGE, creator_id="image")
        cache.populate(universe.all_classes)
        cache.seal()
        master = cache.as_backing_file("master")
        faulted_tokens = []
        for vm_name in ("vm1", "vm2"):
            _h, process, malloc, rng = make_env(vm_name, host=host)
            backing = master.copy_as(f"{vm_name}:scc")
            vma = process.mmap_file(backing, TAG_CACHE)
            metadata = ClassMetadata(
                process, malloc, rng, cache=cache, cache_vma=vma
            )
            order = universe.perturbed_order(
                universe.all_classes, rng, who=vm_name
            )
            metadata.load_classes(order)
            tokens = [
                process.read_token(vma, page)
                for page in range(vma.npages)
                if process.read_token(vma, page) is not None
            ]
            faulted_tokens.append(sorted(tokens))
        assert faulted_tokens[0] == faulted_tokens[1]
