"""Unit tests for the three-layer translation walk."""

import pytest

from repro.core.dump import collect_system_dump
from repro.core.translate import (
    qemu_table_name,
    resolve_gfn,
    resolve_process_page,
)
from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost
from repro.units import MiB

from tests.oracle import dict_view, iter_process_frames, iter_vm_process_pages

PAGE = 4096


@pytest.fixture
def env():
    host = KvmHost(64 * MiB, seed=9)
    vm = host.create_guest("vm1", 4 * MiB)
    kernel = GuestKernel(vm, host.rng.derive("g"))
    java = kernel.spawn("java")
    heap = java.mmap_anon(4 * PAGE, "java:heap")
    java.write_tokens(heap, [10, 20])  # pages 0,1 backed; 2,3 not
    dump = collect_system_dump(host, {"vm1": kernel})
    guest = dump.guest("vm1")
    process = guest.processes[0]
    return host, dump, guest, process, heap


class TestResolve:
    def test_backed_page_resolves_through_all_layers(self, env):
        host, dump, guest, process, heap = env
        resolution = resolve_process_page(
            dump, guest, process, heap.start_vpn
        )
        assert resolution.backed
        assert resolution.gfn is not None
        assert resolution.host_vpn == guest.translate_gfn(resolution.gfn)
        assert host.physmem.token_of(resolution.frame_id) == 10

    def test_unbacked_page_stops_at_first_layer(self, env):
        _host, dump, guest, process, heap = env
        resolution = resolve_process_page(
            dump, guest, process, heap.start_vpn + 3
        )
        assert not resolution.backed
        assert resolution.gfn is None

    def test_resolve_gfn(self, env):
        _host, dump, guest, process, heap = env
        gfn = process.page_table.get(heap.start_vpn)
        assert resolve_gfn(dump, guest, gfn) is not None

    def test_resolve_gfn_outside_slots(self, env):
        _host, dump, guest, _process, _heap = env
        assert resolve_gfn(dump, guest, 10**9) is None


class TestIteration:
    def test_iter_process_frames_yields_backed_only(self, env):
        _host, dump, guest, process, heap = env
        view = dict_view(dump)
        guest = view.guest("vm1")
        frames = list(iter_process_frames(view, guest, guest.processes[0]))
        assert len(frames) == 2
        for vpn, gfn, fid, vma in frames:
            assert vma.tag == "java:heap"
            assert fid is not None

    def test_iter_vm_process_pages_includes_overhead(self, env):
        host, dump, guest, _process, _heap = env
        host.guest("vm1").allocate_overhead(PAGE)
        dump2 = collect_system_dump(host, {})
        pages = list(
            iter_vm_process_pages(dict_view(dump2), guest)
        )
        # 2 guest pages + kernel pages (none booted) + 1 overhead page
        assert len(pages) >= 3

    def test_qemu_table_name(self):
        assert qemu_table_name("vm7") == "host:qemu-vm7"
