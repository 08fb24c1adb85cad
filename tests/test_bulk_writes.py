"""The bulk guest write path equals the per-page one, step by step.

Two identical universes — a KVM host, two KSM-registered guests, one
process each — take the same range writes.  One goes through the bulk
chain (``GuestProcess.write_pages`` → ``GuestKernel.alloc_gfns`` and
``PageTable.map_many`` → ``KvmGuestVm.write_gfns`` →
``HostPhysicalMemory.write_tokens``); the other through the per-page
sequence in :mod:`tests.oracle`.  After every step the two must agree
on the frame columns and ``frames_in_use``; on every table's entries,
``version``, ``remap_epoch``, pending dirty log and sink stream (in
order); on each guest kernel's owner map, free list
and next gfn; on the stamp clock, every frame's stamp and
``cow_breaks``; and on the balloon, compressed pool and Satori
registry.

The deterministic cases make sure each hard case really happens: fresh
ranges and in-place rewrites, writes over merged and STABLE frames,
pages inside an intact huge block, gfns reused from the free list, a
write that exhausts guest memory under a balloon's OOM handler, a
compressed pool holding some of the pages, Satori fills (into a reused
page that still holds other content, and sharing a frame inside an
intact huge block), and a long rewrite of pages that all map one merged
frame.  The Hypothesis test
mixes them at random.
"""

import time
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.guestos.kernel import GuestKernel, OutOfGuestMemoryError
from repro.guestos.pagecache import BackingFile
from repro.hypervisor.balloon import BalloonDriver
from repro.hypervisor.kvm import KvmHost
from repro.mem.address_space import PageTable
from repro.mem.physmem import STABLE, HostPhysicalMemory
from repro.sim.rng import mix64, mix64_many
from repro.units import MiB

from tests import oracle

PAGE = 4096
GUEST_PAGES = 48
VMA_PAGES = 20
FILE_PAGES = 10
#: Few distinct tokens, so pages merge across guests; the largest is
#: the top of the token range, 0 is the zero page.
TOKENS = (0, 1, 2, 3, 5, 1 << 63, (1 << 64) - 1)
#: The failures a range write defines: the rows before the failing one
#: land, as page by page, so the states still compare afterwards.
DEFINED_FAILURES = (IndexError, OutOfGuestMemoryError)


class Universe:
    """A host with two guests, each running one process."""

    def __init__(self, features=(), guest_pages: int = GUEST_PAGES) -> None:
        self.host = KvmHost(64 * MiB, seed=11)
        self.store = (
            self.host.enable_compression() if "compression" in features
            else None
        )
        if "satori" in features:
            self.host.enable_satori()
        self.streams = {}
        self.guests = []
        self.balloons = []
        for name in ("vm1", "vm2"):
            vm = self.host.create_guest(name, guest_pages * PAGE)
            kernel = GuestKernel(vm, self.host.rng.derive("g", name), pid_base=40)
            process = kernel.spawn("java")
            vmas = [
                process.mmap_anon(VMA_PAGES * PAGE, tag)
                for tag in ("heap", "stack")
            ]
            backing = BackingFile("img:/lib/libc", FILE_PAGES * PAGE, PAGE)
            files = process.mmap_file(backing, "libc")
            self._record(vm.page_table)
            if name == "vm1":  # vm2's process table stays unconsumed
                self._record(process.page_table)
            if "balloon" in features:
                self.balloons.append(BalloonDriver(vm, kernel))
            self.guests.append((vm, kernel, process, vmas, files))

    def _record(self, table) -> None:
        stream: List[int] = []
        table.attach_dirty_sink(stream.extend)
        self.streams[table.name] = stream

    def state(self) -> dict:
        """Everything the two paths must agree on."""
        physmem = self.host.physmem
        state = {
            "tokens": list(physmem.tokens),
            "states": bytes(physmem.states),
            "refs": list(physmem.refs),
            "frames_in_use": physmem.frames_in_use,
            "stamp_clock": physmem.stamp_clock,
            "stamps": list(physmem.stamps),
            "cow_breaks": physmem.cow_breaks,
            "blocks": dict(physmem._block_of),
            "splits": physmem.block_splits_by_reason,
        }
        for index, (vm, kernel, process, _vmas, _files) in enumerate(
            self.guests
        ):
            gfns, ids, records = kernel.owner_columns()
            owners = zip(gfns.tolist(), map(records.__getitem__, ids.tolist()))
            state[vm.name] = (
                list(owners),
                list(kernel._free_gfns),
                kernel._next_gfn,
                list(kernel.page_cache._pages.items()),
                dict(kernel.page_cache._mapcount),
            )
            if self.balloons:
                balloon = self.balloons[index]
                state[f"balloon{index}"] = (
                    list(balloon._balloon_gfns), balloon.oom_deflates,
                )
            for table in (vm.page_table, process.page_table):
                state[table.name] = (
                    list(table.entries()),
                    table.version,
                    table.remap_epoch,
                    table.pending_dirty_vpns(),
                    list(self.streams.get(table.name, ())),
                )
        if self.store is not None:
            state["pool"] = (dict(self.store._pool), self.store.stats)
        satori = self.host.satori
        if satori is not None:
            state["satori"] = (
                dict(satori._by_token), satori.fills, satori.immediate_shares,
            )
        return state


def lockstep(features=(), guest_pages: int = GUEST_PAGES):
    """A bulk-path universe and a per-page one, built alike."""
    return Universe(features, guest_pages), Universe(features, guest_pages)


def outcome(call):
    try:
        call()
    except Exception as error:  # compared across the two sides below
        return error
    return None


def agree(bulk, ref, got, want):
    """Same outcome on both sides, then the same state.

    A step may fail only as a range write defines (the rows before the
    failing one land); any other error fails the test.
    """
    for error in (got, want):
        if error is not None and not isinstance(error, DEFINED_FAILURES):
            raise error
    assert type(got) is type(want), (got, want)
    assert bulk.state() == ref.state()
    return type(got)


def write(bulk, ref, guest, vma, pages, tokens):
    """The same range write on both sides; outcomes and states agree."""
    got = outcome(
        lambda: bulk.guests[guest][2].write_pages(
            bulk.guests[guest][3][vma], pages, tokens
        )
    )
    want = outcome(
        lambda: oracle.write_pages_per_page(
            ref.guests[guest][2], ref.guests[guest][3][vma], pages, tokens
        )
    )
    return agree(bulk, ref, got, want)


def fault(bulk, ref, guest, start, count):
    got = outcome(
        lambda: bulk.guests[guest][2].fault_file_pages(
            bulk.guests[guest][4], start, count
        )
    )
    want = outcome(
        lambda: oracle.fault_file_pages_per_page(
            ref.guests[guest][2], ref.guests[guest][4], start, count
        )
    )
    agree(bulk, ref, got, want)


def both(bulk, ref, action):
    """Apply a non-write step (scan, unmap, balloon, ...) to both."""
    action(bulk)
    action(ref)
    assert bulk.state() == ref.state()


def converge(universe):
    universe.host.ksm.run_until_converged(max_passes=6)


def remap_vma(universe, guest, vma):
    """munmap a VMA (its gfns go to the free list) and map a new one."""
    _vm, _kernel, process, vmas, _files = universe.guests[guest]
    process.munmap(vmas[vma])
    vmas[vma] = process.mmap_anon(VMA_PAGES * PAGE, vmas[vma].tag)


class TestCases:
    def test_fresh_ranges_and_in_place_rewrites(self):
        bulk, ref = lockstep()
        write(bulk, ref, 0, 0, range(VMA_PAGES), [1] * VMA_PAGES)
        assert bulk.host.physmem.frames_in_use == VMA_PAGES
        write(bulk, ref, 0, 0, [3, 4, 5, 3], [2, 3, 5, 7])
        write(bulk, ref, 0, 1, np.arange(5, 12), mix64_many(9, np.arange(7)))
        assert bulk.host.physmem.cow_breaks == 0

    def test_writes_over_merged_and_stable_frames(self):
        bulk, ref = lockstep()
        for guest in (0, 1):
            write(bulk, ref, guest, 0, range(8), [5, 5, 3, 3, 2, 1, 1, 0])
        both(bulk, ref, converge)
        physmem = bulk.host.physmem
        stable = [fid for fid, s in enumerate(physmem.states) if s == STABLE]
        assert stable and any(physmem.refs[fid] > 1 for fid in stable)
        # Guest 0 breaks COW on shared STABLE frames; guest 1's copy of
        # token 2 is then STABLE with one mapper, and still breaks COW.
        write(bulk, ref, 0, 0, range(8), [9, 5, 9, 3, 9, 1, 9, 0])
        vm, _kernel, process, vmas, _files = bulk.guests[1]
        lone = vm.host_frame_of_gfn(
            process.page_table.translate(vmas[0].vpn_of(4))
        )
        assert physmem.states[lone] == STABLE and physmem.refs[lone] == 1
        breaks = physmem.cow_breaks
        write(bulk, ref, 1, 0, [0, 2, 4, 6, 0], [7, 7, 7, 7, 8])
        # Every row breaks COW but the last, which finds its own copy.
        assert physmem.cow_breaks == breaks + 4
        assert not physmem.is_live(lone)

    def test_pages_inside_an_intact_huge_block(self):
        bulk, ref = lockstep()
        write(bulk, ref, 0, 0, range(16), list(range(16)))

        def form(universe):
            vm = universe.guests[0][0]
            assert universe.host.physmem.form_block(
                vm.page_table, vm.guest_host_base_vpn + 4, 8
            )

        both(bulk, ref, form)
        write(bulk, ref, 0, 0, range(2, 14), [1, 2, 3] * 4)
        assert bulk.host.physmem.blocks_intact == 1

    def test_gfns_reused_from_the_free_list(self):
        bulk, ref = lockstep()
        write(bulk, ref, 0, 0, range(12), [1, 2, 3] * 4)
        write(bulk, ref, 0, 1, range(6), [4] * 6)
        both(bulk, ref, lambda u: remap_vma(u, 0, 0))
        kernel = bulk.guests[0][1]
        assert len(kernel._free_gfns) == 12
        free = list(kernel._free_gfns)
        write(bulk, ref, 0, 0, [7, 1, 7, 2, 19], [5, 6, 7, 8, 9])
        assert kernel._free_gfns == free[:-4]  # taken last-in, first-out

    def test_write_exhausting_memory_under_a_balloon(self):
        bulk, ref = lockstep(("balloon",), guest_pages=20)
        write(bulk, ref, 0, 1, range(4), [1, 2, 3, 4])
        both(bulk, ref, lambda u: u.balloons[0].inflate(14 * PAGE))
        assert bulk.guests[0][1].free_pages == 2
        # Deflate-on-OOM rescues the write mid-range, then the balloon
        # is empty and the write fails after the rows it could back.
        assert write(bulk, ref, 0, 0, range(VMA_PAGES), [7] * VMA_PAGES) \
            is OutOfGuestMemoryError
        assert bulk.balloons[0].oom_deflates == 1
        assert len(bulk.guests[0][2].page_table) == 20

    def test_compressed_pool_holding_some_pages(self):
        bulk, ref = lockstep(("compression",))
        write(bulk, ref, 1, 0, range(10), list(range(10)))

        def compress(universe):
            vm = universe.guests[1][0]
            base = vm.guest_host_base_vpn
            for gfn in (1, 4, 5):
                universe.store.compress_page(vm.page_table, base + gfn)

        both(bulk, ref, compress)
        write(bulk, ref, 1, 0, [0, 4, 1, 4, 9, 5], [3, 3, 3, 4, 4, 4])
        assert bulk.store.stats.pages_restored == 3

    def test_satori_fills(self):
        bulk, ref = lockstep(("satori",))
        fault(bulk, ref, 0, 0, FILE_PAGES)
        fault(bulk, ref, 1, 2, 5)
        fault(bulk, ref, 1, 0, FILE_PAGES)
        assert bulk.host.satori.immediate_shares == FILE_PAGES
        fault(bulk, ref, 0, 8, 4)  # runs past the file's end

    def test_satori_fill_over_a_reused_page_holding_other_content(self):
        bulk, ref = lockstep(("satori",))
        fault(bulk, ref, 1, 2, FILE_PAGES - 2)
        write(bulk, ref, 0, 0, range(3), [1, 2, 3])
        both(bulk, ref, lambda u: remap_vma(u, 0, 0))
        # File pages 0 and 1 land in reused gfns; pages 2 and 3 are
        # resident in guest 1, and page 2's reused gfn still holds
        # token 1 at the host: the fill drops that page and shares.
        fault(bulk, ref, 0, 0, 4)
        satori = bulk.host.satori
        assert satori.fills == (FILE_PAGES - 2) + 4
        assert satori.immediate_shares == 2
        vm, _kernel, process, _vmas, files = bulk.guests[0]
        gfn = process.page_table.translate(files.vpn_of(2))
        assert vm.read_gfn(gfn) == files.backing.page_token(2)

    def test_satori_share_of_a_frame_inside_an_intact_huge_block(self):
        bulk, ref = lockstep(("satori",))
        fault(bulk, ref, 0, 0, 4)

        def form(universe):
            vm = universe.guests[0][0]
            assert universe.host.physmem.form_block(
                vm.page_table, vm.guest_host_base_vpn, 4
            )

        both(bulk, ref, form)
        # Guest 1 reads the same blocks: their frames sit inside guest
        # 0's intact huge block, which the first share splits.
        fault(bulk, ref, 1, 0, 4)
        physmem = bulk.host.physmem
        assert bulk.host.satori.immediate_shares == 4
        assert physmem.blocks_intact == 0
        assert physmem.block_splits_by_reason == {"satori-share": 1}

    def test_unconsumed_process_table_logs_nothing(self):
        bulk, ref = lockstep()
        write(bulk, ref, 1, 0, range(6), [1] * 6)
        vm, _kernel, process, _vmas, _files = bulk.guests[1]
        assert process.page_table.dirty_count == 0
        assert vm.page_table.dirty_count == 6  # KSM reads this one


def frame_table_state(physmem, table, stream):
    return (
        list(physmem.tokens), bytes(physmem.states),
        list(physmem.refs), list(physmem.stamps), physmem.frames_in_use,
        physmem.stamp_clock, physmem.cow_breaks, list(table.entries()),
        table.version, table.remap_epoch, table.pending_dirty_vpns(),
        list(stream),
    )


def test_rewrite_of_many_pages_over_one_merged_frame_is_linear():
    """Zeroed pages all merge into one STABLE frame, and a later range
    write breaks copy-on-write on every row.  The bulk write equals one
    write_token per row, and its time grows with the rows, not their
    square (a re-translation per row would take seconds here)."""
    rows = 8000

    def merged():
        physmem = HostPhysicalMemory(1 << 40, PAGE)
        table = PageTable("host:zeros")
        stream: List[int] = []
        table.attach_dirty_sink(stream.extend)
        fid = physmem.map_token(table, 0, 0)
        physmem.mark_ksm_stable(fid)
        for vpn in range(1, rows):
            physmem.share_mapping(table, vpn, fid)
        return physmem, table, stream

    vpns = list(range(rows))
    tokens = mix64_many(3, np.arange(rows))
    bulk, ref = merged(), merged()
    started = time.perf_counter()
    bulk[0].write_tokens(bulk[1], vpns, tokens)
    elapsed = time.perf_counter() - started
    for vpn, token in zip(vpns, tokens.tolist()):
        ref[0].write_token(ref[1], vpn, token)
    assert frame_table_state(*bulk) == frame_table_state(*ref)
    assert bulk[0].cow_breaks == rows
    assert elapsed < 1.0, f"{rows} rows took {elapsed:.2f} s"


@pytest.mark.parametrize("bad", [-1, 1 << 64])
def test_tokens_outside_the_range_are_refused(bad):
    """alloc, alloc_many, write_token and write_tokens refuse a token
    outside [0, 2**64) with ValueError, before any frame changes: a
    refused write_tokens leaves the frame columns, the stamps, the stamp
    clock and the dirty log as they were, whatever rows precede the bad
    token."""
    physmem = HostPhysicalMemory(1 << 30, PAGE)
    table = PageTable("host:t")
    stream: List[int] = []
    table.attach_dirty_sink(stream.extend)
    physmem.write_tokens(table, range(4), [1, 2, 3, 4])
    merged = physmem.map_token(table, 9, 5)
    physmem.mark_ksm_stable(merged)
    physmem.share_mapping(table, 10, merged)
    before = frame_table_state(physmem, table, stream)
    calls = [
        lambda: physmem.alloc(bad),
        lambda: physmem.alloc_many([7, bad]),
        lambda: physmem.write_token(table, 0, bad),  # in place
        lambda: physmem.write_token(table, 9, bad),  # copy-on-write
        lambda: physmem.write_token(table, 20, bad),  # unmapped
        lambda: physmem.write_tokens(table, [0, 1, 20, 9, 2], [8] * 4 + [bad]),
        lambda: physmem.write_tokens(table, [0, 20], [8, bad]),
    ]
    if bad < 0:
        calls += [
            lambda: physmem.alloc_many(np.array([3, bad])),
            lambda: physmem.write_tokens(table, [0, 1], np.array([3, bad])),
        ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
        assert frame_table_state(physmem, table, stream) == before


FEATURES = [
    (),
    ("balloon",),
    ("compression",),
    ("satori",),
    ("balloon", "compression", "satori"),
]


@st.composite
def range_write(draw):
    pages = draw(
        st.one_of(
            st.lists(st.integers(0, VMA_PAGES - 1), min_size=1, max_size=24),
            st.builds(
                lambda a, n: list(range(a, min(a + n, VMA_PAGES))),
                st.integers(0, VMA_PAGES - 1),
                st.integers(1, VMA_PAGES),
            ),
        )
    )
    if draw(st.integers(0, 9)) == 0:  # now and then, a page off the VMA
        pages[draw(st.integers(0, len(pages) - 1))] = draw(
            st.sampled_from([-1, VMA_PAGES])
        )
    tokens = draw(
        st.lists(
            st.sampled_from(TOKENS), min_size=len(pages), max_size=len(pages)
        )
    )
    return pages, tokens


@given(features=st.sampled_from(FEATURES), data=st.data())
@settings(max_examples=60, deadline=None)
def test_random_steps_in_lockstep(features, data):
    bulk, ref = lockstep(features, guest_pages=40)
    for _ in range(data.draw(st.integers(1, 14))):
        step = data.draw(
            st.sampled_from(
                ["write", "write", "write", "fault", "scan", "converge",
                 "remap", "huge", "balloon", "compress"]
            )
        )
        guest = data.draw(st.integers(0, 1))
        if step == "write":
            pages, tokens = data.draw(range_write())
            write(bulk, ref, guest, data.draw(st.integers(0, 1)), pages, tokens)
        elif step == "fault":
            start = data.draw(st.integers(0, FILE_PAGES - 1))
            fault(bulk, ref, guest, start, data.draw(st.integers(1, 5)))
        elif step == "scan":
            budget = data.draw(st.integers(1, 60))
            both(bulk, ref, lambda u: u.host.ksm.scan_pages(budget))
        elif step == "converge":
            both(bulk, ref, converge)
        elif step == "remap":
            vma = data.draw(st.integers(0, 1))
            both(bulk, ref, lambda u: remap_vma(u, guest, vma))
        elif step == "huge":
            gfn = data.draw(st.integers(0, 9)) * 4
            both(
                bulk, ref,
                lambda u: u.host.physmem.form_block(
                    u.guests[guest][0].page_table,
                    u.guests[guest][0].guest_host_base_vpn + gfn, 4,
                ),
            )
        elif step == "balloon" and bulk.balloons:
            pages = data.draw(st.integers(-8, 16))
            both(
                bulk, ref,
                lambda u: u.balloons[guest].inflate(pages * PAGE)
                if pages > 0 else u.balloons[guest].deflate(-pages * PAGE),
            )
        elif step == "compress" and bulk.store is not None:
            count = data.draw(st.integers(1, 6))

            def compress(universe):
                vm = universe.guests[guest][0]
                for vpn, fid in sorted(vm.page_table.entries())[:count]:
                    if universe.host.physmem.states[fid] != STABLE:
                        universe.store.compress_page(vm.page_table, vpn)

            both(bulk, ref, compress)


def _zero_mixing_value(key: int) -> int:
    """The value ``v`` with ``mix64(key, v)`` mixing to 0 (then 1)."""
    mask = (1 << 64) - 1

    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x & mask

    z = unshift(0, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    z = unshift(z, 30)
    return ((z ^ key) * pow(0x9E3779B97F4A7C15, -1, 1 << 64)) & mask


class TestMix64Many:
    @given(
        key=st.integers(0, (1 << 64) - 1),
        rows=st.lists(
            st.tuples(st.integers(0, (1 << 64) - 1), st.integers(0, 1 << 40)),
            min_size=1, max_size=20,
        ),
        epoch=st.integers(0, 1 << 32),
    )
    def test_equals_mix64_element_by_element(self, key, rows, epoch):
        firsts = [first for first, _ in rows]
        seconds = [second for _, second in rows]
        got = mix64_many(key, firsts, np.array(seconds), epoch)
        assert got.dtype == np.uint64
        assert got.tolist() == [
            mix64(key, first, second, epoch) for first, second in rows
        ]

    def test_the_value_mixing_to_zero_gives_one(self):
        key = 12345
        value = _zero_mixing_value(key)
        assert mix64(key, value) == 1
        assert mix64_many(key, [value, 7]).tolist() == [1, mix64(key, 7)]

    def test_no_values_returns_the_key(self):
        assert int(mix64_many(77)) == mix64(77)
        assert mix64_many(5, np.arange(0)).shape == (0,)
