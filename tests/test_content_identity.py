"""Integer content identity: page tokens keep byte equality.

Layout, guest-kernel and page-cache page tokens come from splitmix64
(:func:`repro.sim.rng.mix64_many`), not BLAKE2b.  Their values are free;
what must hold is the equality relation:

* a layout page's token equals another's exactly when the per-page
  BLAKE2b walk in :func:`tests.oracle.page_tokens_per_page` gives them
  equal tokens; the all-zero page is ``ZERO_TOKEN`` and no other page
  is 0;
* kernel text and boot-file pages are equal across guests booted from
  one image and differ across images; a file copy keeps every token;
* the per-guest kernel areas consume their RNG streams as before: one
  32-bit draw per page, in page order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.guestos.kernel import GuestKernel, KernelProfile
from repro.guestos.pagecache import BackingFile
from repro.hypervisor.kvm import KvmHost
from repro.mem.content import (
    ZERO_TOKEN,
    Chunk,
    page_tokens_for_chunks,
    sum_slice_hashes,
)
from repro.sim.rng import mix64_many, stable_hash64
from repro.units import KiB, MiB

from tests.oracle import page_tokens_per_page


def layouts(page_size: int):
    """Chunk lists over a small pool of content ids (0 is zero bytes)
    and sizes from one byte to several pages, so equal pages recur."""
    return st.lists(
        st.builds(
            Chunk,
            content_id=st.sampled_from([0, 0, 1, 2, 3, 2**64 - 1]),
            size=st.one_of(
                st.sampled_from([page_size, page_size // 2, 2 * page_size]),
                st.integers(1, 6 * page_size),
            ),
        ),
        max_size=12,
    )


@st.composite
def placed_layouts(draw):
    """A page size and several layouts, each with its own base offset."""
    page_size = draw(st.sampled_from([8, 64, 4096]))
    return page_size, draw(st.lists(
        st.tuples(layouts(page_size), st.integers(0, page_size - 1)),
        min_size=1,
        max_size=4,
    ))


class TestLayoutTokens:
    @given(placed=placed_layouts())
    @settings(max_examples=300, deadline=None)
    def test_equal_exactly_when_the_oracle_says_so(self, placed):
        page_size, placements = placed
        new, old = [], []
        for chunks, base in placements:
            tokens = page_tokens_for_chunks(chunks, page_size, base)
            expected = page_tokens_per_page(chunks, page_size, base)
            assert len(tokens) == len(expected)
            new += tokens
            old += expected
        # The same partition of the pages: the pairing is one-to-one.
        pairs = set(zip(old, new))
        assert len(pairs) == len(set(old)) == len(set(new))
        # The all-zero page is ZERO_TOKEN, and only it.
        assert [t == ZERO_TOKEN for t in new] == [
            t == ZERO_TOKEN for t in old
        ]

    @given(chunks=layouts(64), base=st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_pages_split_by_many_slices(self, chunks, base):
        """Single-byte chunks cut a page into dozens of slices."""
        tiny = [Chunk(c.content_id, 1 + c.size % 3) for c in chunks] * 8
        new = page_tokens_for_chunks(tiny, 64, base)
        old = page_tokens_per_page(tiny, 64, base)
        assert len(set(zip(old, new))) == len(set(old)) == len(set(new))

    def test_a_page_summing_to_zero_gets_one(self):
        hashes = np.array([1, 2**64 - 1, 5, 7], np.uint64)
        pages = np.array([0, 0, 2, 2])
        assert sum_slice_hashes(hashes, pages, 4).tolist() == [1, 0, 12, 0]

    def test_a_page_with_no_slice_is_zero(self):
        assert sum_slice_hashes(
            np.empty(0, np.uint64), np.empty(0, np.int64), 2
        ).tolist() == [ZERO_TOKEN, ZERO_TOKEN]


def boot(image_id: str, name: str, seed: int = 3):
    host = KvmHost(64 * MiB, seed=seed)
    vm = host.create_guest(name, 4 * MiB)
    kernel = GuestKernel(vm, host.rng.derive("g", name))
    kernel.boot(KernelProfile(
        image_id=image_id,
        code_bytes=64 * KiB,
        shared_pagecache_bytes=128 * KiB,
        private_data_bytes=96 * KiB,
        buffers_bytes=32 * KiB,
    ))
    return kernel


def area_tokens(kernel: GuestKernel, tag: str):
    return [kernel.vm.read_gfn(gfn) for gfn in kernel.kernel_area_pages(tag)]


class TestKernelAndPageCacheTokens:
    def test_one_image_gives_equal_text_and_boot_file_pages(self):
        a, b = boot("img-a", "vm1"), boot("img-a", "vm2", seed=4)
        for tag in ("code", "pagecache"):
            tokens = area_tokens(a, tag)
            assert tokens == area_tokens(b, tag)
            assert len(set(tokens)) == len(tokens)
            assert ZERO_TOKEN not in tokens

    def test_two_images_give_unequal_pages(self):
        a, b = boot("img-a", "vm1"), boot("img-b", "vm1")
        for tag in ("code", "pagecache"):
            assert not set(area_tokens(a, tag)) & set(area_tokens(b, tag))

    def test_private_areas_draw_one_value_per_page_in_order(self):
        kernel = boot("img-a", "vm1")
        for tag, name, stream in (
            ("data", "kdata", "kernel-private"),
            ("buffers", "kbuf", "kernel-buffers"),
        ):
            draws = kernel.rng.stream(stream, "vm1")
            pages = len(kernel.kernel_area_pages(tag))
            expected = mix64_many(
                stable_hash64(name, "vm1"),
                range(pages),
                [draws.getrandbits(32) for _ in range(pages)],
            ).tolist()
            assert area_tokens(kernel, tag) == expected

    def test_private_areas_differ_across_guests(self):
        a, b = boot("img-a", "vm1"), boot("img-a", "vm2")
        for tag in ("data", "buffers"):
            assert not set(area_tokens(a, tag)) & set(area_tokens(b, tag))

    def test_copy_as_keeps_each_token(self):
        original = BackingFile("img:/lib.so", 40 * 4096 + 1, 4096)
        copy = original.copy_as("copy:/lib.so")
        indices = range(original.npages)
        assert copy.page_tokens(indices) == original.page_tokens(indices)
        assert [copy.page_token(i) for i in indices] == [
            original.page_token(i) for i in indices
        ]
        assert len(set(copy.page_tokens(indices))) == original.npages

    def test_bulk_and_single_file_tokens_agree(self):
        backing = BackingFile("img:/f", 9 * 4096, 4096)
        assert backing.page_tokens([8, 0, 3, 3]) == [
            backing.page_token(i) for i in (8, 0, 3, 3)
        ]
