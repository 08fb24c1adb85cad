"""A glibc-style malloc model.

The paper's §III.B leans on two glibc behaviours to explain why native
programs share pages better than JVMs:

* allocations of at least the mmap threshold (128 KiB) are served by
  ``mmap`` and therefore start at a **fixed offset from a page boundary**
  (the 16-byte chunk header) in every process;
* smaller allocations come from arena chunks whose position depends on the
  process's allocation history, so the page alignment of the same datum
  varies from process to process.

Components lay out their data with :class:`MallocModel` so that this
alignment behaviour — and the sharing consequences — emerge naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.guestos.process import GuestProcess, Vma
from repro.sim.rng import RngFactory
from repro.units import KiB, MiB, align_up

#: glibc M_MMAP_THRESHOLD default.
MMAP_THRESHOLD = 128 * KiB

#: Size of the malloc chunk header preceding user data.
CHUNK_HEADER = 16

#: Granularity of arena growth.
ARENA_EXTENT = 4 * MiB


@dataclass
class MallocBlock:
    """One allocation: a VMA plus the byte offset of the user data."""

    vma: Vma
    offset_bytes: int  # of the user data, from the VMA start
    size: int
    from_mmap: bool
    page_size: int

    @property
    def page_offset(self) -> int:
        """Offset of the user data within its first page."""
        return self.offset_bytes % self.page_size

    @property
    def first_page(self) -> int:
        """Index (within the VMA) of the first page the data touches."""
        return self.offset_bytes // self.page_size


class MallocModel:
    """Per-process allocator handing out :class:`MallocBlock` placements."""

    def __init__(self, process: GuestProcess, rng: RngFactory) -> None:
        self.process = process
        self.page_size = process.page_size
        self._rng = rng.stream("malloc", process.kernel.vm.name, process.pid)
        self._arenas: List[Vma] = []
        self._arena_cursor = 0  # bytes used in the newest arena
        self._tag = f"{process.name}:malloc-arena"
        self.blocks: List[MallocBlock] = []

    def malloc(self, size: int, tag: Optional[str] = None) -> MallocBlock:
        """Allocate ``size`` bytes; placement follows the glibc rules."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if size >= MMAP_THRESHOLD:
            # mmap-served: page-aligned VMA, data at the fixed header offset.
            vma = self.process.mmap_anon(
                align_up(size + CHUNK_HEADER, self.page_size),
                tag or f"{self._tag}:mmap",
            )
            block = MallocBlock(vma, CHUNK_HEADER, size, True, self.page_size)
            self.blocks.append(block)
            return block
        # Arena-served: bump allocation with history-dependent placement.
        needed = align_up(size + CHUNK_HEADER, CHUNK_HEADER)
        if not self._arenas or self._arena_cursor + needed > ARENA_EXTENT:
            vma = self.process.mmap_anon(ARENA_EXTENT, tag or self._tag)
            self._arenas.append(vma)
            # The initial cursor models the allocation history that preceded
            # this component in a real process: a per-process random,
            # 16-byte-aligned start position within the first page.
            self._arena_cursor = (
                self._rng.randrange(0, self.page_size // CHUNK_HEADER)
                * CHUNK_HEADER
            )
        vma = self._arenas[-1]
        offset = self._arena_cursor + CHUNK_HEADER
        self._arena_cursor += needed
        block = MallocBlock(vma, offset, size, False, self.page_size)
        self.blocks.append(block)
        return block

    @property
    def arena_count(self) -> int:
        return len(self._arenas)
