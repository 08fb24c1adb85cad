"""Unit tests for system-dump collection (the §II.B tooling)."""

import pytest

import numpy as np

from repro.core.dump import (
    DumpUnanalyzableError,
    collect_system_dump,
    dump_guest,
    read_kvm_memslots,
)
from repro.guestos.kernel import GuestKernel, OwnerKind
from repro.guestos.pagecache import BackingFile
from repro.hypervisor.kvm import KvmHost
from repro.units import MiB

from tests.oracle import dict_view

PAGE = 4096


def build_small_host(debug_guest=True):
    host = KvmHost(64 * MiB, seed=9)
    kernels = {}
    for name in ("vm1", "vm2"):
        vm = host.create_guest(name, 4 * MiB)
        kernel = GuestKernel(
            vm, host.rng.derive("g", name), debug_kernel=debug_guest
        )
        kernels[name] = kernel
        java = kernel.spawn("java")
        heap = java.mmap_anon(2 * PAGE, "java:heap")
        java.write_tokens(heap, [1, 2])
        code = java.mmap_file(
            BackingFile("jdk:lib", PAGE, PAGE), "java:code"
        )
        java.fault_file_pages(code)
        daemon = kernel.spawn("sshd")
        anon = daemon.mmap_anon(PAGE, "sshd:heap")
        daemon.write_token(anon, 0, 7)
        vm.allocate_overhead(PAGE)
    return host, kernels


class TestKernelModule:
    def test_read_kvm_memslots(self):
        host, _kernels = build_small_host()
        vm = host.guest("vm1")
        slots = read_kvm_memslots(vm)
        assert len(slots) == 1
        assert slots[0].npages == vm.guest_npages


class TestGuestDump:
    def test_dump_guest_contents(self):
        host, kernels = build_small_host()
        dump = dump_guest(host.guest("vm1"), kernels["vm1"], 0)
        assert dump.vm_name == "vm1"
        names = {p.name for p in dump.processes}
        assert names == {"java", "sshd"}
        java = next(p for p in dump.processes if p.name == "java")
        assert java.is_java
        assert len(java.page_table) == 3  # 2 heap pages + 1 code page
        sshd = next(p for p in dump.processes if p.name == "sshd")
        assert not sshd.is_java

    def test_non_debug_kernel_refused(self):
        host, kernels = build_small_host(debug_guest=False)
        with pytest.raises(DumpUnanalyzableError):
            dump_guest(host.guest("vm1"), kernels["vm1"], 0)

    def test_vma_records(self):
        host, kernels = build_small_host()
        dump = dump_guest(host.guest("vm1"), kernels["vm1"], 0)
        java = next(p for p in dump.processes if p.name == "java")
        tags = {vma.tag for vma in java.vmas}
        assert tags == {"java:heap", "java:code"}
        code = next(v for v in java.vmas if v.tag == "java:code")
        assert code.file_id == "jdk:lib"

    def test_vma_lookup(self):
        host, kernels = build_small_host()
        dump = dump_guest(host.guest("vm1"), kernels["vm1"], 0)
        java = next(p for p in dump.processes if p.name == "java")
        heap = next(v for v in java.vmas if v.tag == "java:heap")
        assert java.vma_of(heap.start_vpn).tag == "java:heap"
        assert java.vma_of(10**9) is None

    def test_gfn_owners_included(self):
        host, kernels = build_small_host()
        dump = dump_guest(host.guest("vm1"), kernels["vm1"], 0)
        kinds = {
            dump.owner_records[index].kind
            for index in dump.gfn_owners.values.tolist()
        }
        assert OwnerKind.PROCESS_ANON in kinds
        assert OwnerKind.PAGE_CACHE in kinds


class TestSystemDump:
    def test_collect_all_layers(self):
        host, kernels = build_small_host()
        dump = collect_system_dump(host, kernels)
        assert len(dump.guests) == 2
        assert "host:qemu-vm1" in dump.host.page_tables
        assert dump.host.page_size == PAGE
        assert len(dump.frames)  # tokens captured for diagnostics

    def test_non_debug_host_refused(self):
        host, kernels = build_small_host()
        with pytest.raises(DumpUnanalyzableError):
            collect_system_dump(host, kernels, host_debug_kernel=False)

    def test_guest_lookup(self):
        host, kernels = build_small_host()
        dump = collect_system_dump(host, kernels)
        assert dump.guest("vm2").vm_name == "vm2"
        with pytest.raises(KeyError):
            dump.guest("vm3")

    def test_dump_is_a_snapshot(self):
        """Post-dump writes must not leak into the collected dump."""
        host, kernels = build_small_host()
        dump = collect_system_dump(host, kernels)
        java = kernels["vm1"].process(
            next(
                p.pid
                for p in dump.guest("vm1").processes
                if p.name == "java"
            )
        )
        before = dict_view(dump)
        extra = java.mmap_anon(PAGE, "java:heap")
        java.write_token(extra, 0, 99)
        after = dict_view(dump)
        assert after.host.page_tables == before.host.page_tables
        assert (
            after.guest("vm1").processes[0].page_table
            == before.guest("vm1").processes[0].page_table
        )
        assert after.frame_tokens == before.frame_tokens

    def test_guests_without_kernel_info_skipped(self):
        host, kernels = build_small_host()
        dump = collect_system_dump(host, {"vm1": kernels["vm1"]})
        assert len(dump.guests) == 1
        # The undumped guest's pages still show in the host dump.
        assert "host:qemu-vm2" in dump.host.page_tables


class TestFrameTable:
    def test_matches_per_frame_probes(self):
        host, kernels = build_small_host()
        host.ksm.run_until_converged()
        dump = collect_system_dump(host, kernels)
        frames = dump.frames
        mapped = {
            fid
            for vm in host.guests
            for _vpn, fid in vm.page_table.entries()
        }
        assert frames.fids.tolist() == sorted(mapped)
        physmem = host.physmem
        for fid, token, refcount in zip(
            frames.fids.tolist(), frames.tokens.tolist(),
            frames.refcounts.tolist(),
        ):
            assert token == physmem.token_of(fid)
            assert refcount == physmem.refs[fid]
        assert frames.tokens.dtype == np.uint64
        assert frames.has_token.all()

    def test_skips_freed_frames(self):
        host, kernels = build_small_host()
        vm = host.guest("vm1")
        vpn, fid = next(iter(vm.page_table.entries()))
        # A table still naming a freed frame (a torn read): the frame
        # table leaves it out, as the struct-page array has no entry.
        host.physmem.dec_ref(fid)
        dump = collect_system_dump(host, kernels)
        assert not host.physmem.is_live(fid)
        assert fid not in dump.frames.fids.tolist()
        assert dump.host.frame_of(vm.page_table.name, vpn) == fid


class TestOwnerColumns:
    def test_interned_and_caller_built_records(self):
        from repro.guestos.kernel import PageOwner

        host, kernels = build_small_host()
        kernel = kernels["vm1"]
        own = kernel.alloc_gfns(PageOwner(OwnerKind.KERNEL, tag="x"), 2)
        other = kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL, tag="x"))
        gfns, ids, records = kernel.owner_columns()
        assert ids.dtype == np.int32 and gfns.dtype == np.int64
        allocated = [
            gfn for gfn in range(kernel.total_pages)
            if kernel.owner_of(gfn) is not None
        ]
        assert gfns.tolist() == allocated
        for gfn, index in zip(gfns.tolist(), ids.tolist()):
            assert records[index] == kernel.owner_of(gfn)
        # Equal caller-built records share one entry.
        rows = [gfns.tolist().index(g) for g in own.tolist() + [other]]
        assert len({ids[row] for row in rows}) == 1

    def test_columns_are_a_copy(self):
        host, kernels = build_small_host()
        kernel = kernels["vm1"]
        gfns, ids, _records = kernel.owner_columns()
        kernel.alloc_gfn(kernel.owner_record(OwnerKind.KERNEL, tag="y"))
        assert len(kernel.owner_columns()[0]) == len(gfns) + 1
        assert len(ids) == len(gfns)
