"""The Java heap: areas, page states, and the mutator/GC write stream.

Table IV's "Java heap" category.  The paper identifies three reasons the
heap defeats TPS (§III.B):

* object *headers* are written even on logically read-only objects
  (monitor acquisition flat-locks, GC mark bits) — modelled as the
  per-tick mutator dirtying;
* the GC *moves* objects (compaction; every minor GC under generational
  policies), changing page offsets — modelled as an epoch bump that
  re-tokenises live pages;
* the GC *zero-fills* reclaimed space, which briefly creates mergeable
  zero pages that are "soon modified and divided" when allocation reuses
  them — modelled by the zero tail and its reallocation schedule.

A :class:`HeapArea` tracks one contiguous heap range at page granularity:
each page is untouched, zero, or live at some epoch.  Policies in
:mod:`repro.jvm.gc` orchestrate the areas.
"""

from __future__ import annotations

from typing import List

from repro.guestos.process import GuestProcess, Vma
from repro.mem.content import ZERO_TOKEN
from repro.sim.rng import mix64, stable_hash64

TAG_HEAP = "java:heap"

#: Page-state sentinels (non-negative values are live epochs).
UNTOUCHED = -2
ZEROED = -1

#: Knuth multiplicative constant used for cheap deterministic sampling.
_MIX = 2654435761


class HeapArea:
    """One contiguous heap range (whole flat heap, nursery, or tenured)."""

    def __init__(
        self,
        process: GuestProcess,
        area_name: str,
        size_bytes: int,
        tag: str = TAG_HEAP,
    ) -> None:
        self.process = process
        self.area_name = area_name
        self.vma: Vma = process.mmap_anon(size_bytes, tag)
        self.npages = self.vma.npages
        self._state: List[int] = [UNTOUCHED] * self.npages
        # Heap content is process-unique: object graphs, addresses and
        # headers never coincide between two JVM processes.
        self._key = stable_hash64(
            "heap", process.kernel.vm.name, process.pid, area_name
        )
        self._live_count = 0
        self._zero_count = 0

    # ------------------------------------------------------------------
    # Page writes
    # ------------------------------------------------------------------

    def _live_token(self, page: int, epoch: int) -> int:
        return mix64(self._key, page, epoch)

    def write_live(self, page: int, epoch: int) -> None:
        previous = self._state[page]
        if previous == ZEROED:
            self._zero_count -= 1
        if previous < 0:
            self._live_count += 1
        self._state[page] = epoch
        self.process.write_token(self.vma, page, self._live_token(page, epoch))

    def write_zero(self, page: int) -> None:
        previous = self._state[page]
        if previous == ZEROED:
            return
        if previous >= 0:
            self._live_count -= 1
        self._state[page] = ZEROED
        self._zero_count += 1
        self.process.write_token(self.vma, page, ZERO_TOKEN)

    def fill_live(self, first_page: int, count: int, epoch: int) -> None:
        for page in range(first_page, first_page + count):
            self.write_live(page, epoch)

    # ------------------------------------------------------------------
    # Bulk operations used by the GC policies
    # ------------------------------------------------------------------

    def rewrite_live(self, epoch: int) -> int:
        """Re-tokenise every live page (object movement under compaction)."""
        moved = 0
        for page, state in enumerate(self._state):
            if state >= 0:
                self.write_live(page, epoch)
                moved += 1
        return moved

    def dirty_fraction(self, fraction: float, epoch: int) -> int:
        """Dirty a deterministic sample of live pages (headers, stores)."""
        if fraction <= 0:
            return 0
        threshold = int(fraction * (1 << 32))
        dirtied = 0
        for page, state in enumerate(self._state):
            if state < 0:
                continue
            sample = ((page * _MIX) ^ (epoch * 0x9E3779B9)) & 0xFFFFFFFF
            if sample < threshold:
                self.write_live(page, epoch)
                dirtied += 1
        return dirtied

    def zero_tail(self, num_pages: int) -> int:
        """Zero-fill the top ``num_pages`` of the touched range (post-GC)."""
        zeroed = 0
        for page in range(self.npages - 1, -1, -1):
            if zeroed >= num_pages:
                break
            if self._state[page] >= 0:
                self.write_zero(page)
                zeroed += 1
        return zeroed

    def allocate_from_zeros(self, num_pages: int, epoch: int) -> int:
        """Reuse zeroed pages for fresh allocation (TLAB refills)."""
        allocated = 0
        for page, state in enumerate(self._state):
            if allocated >= num_pages:
                break
            if state == ZEROED:
                self.write_live(page, epoch)
                allocated += 1
        return allocated

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_pages(self) -> int:
        return self._live_count

    @property
    def zero_pages(self) -> int:
        return self._zero_count

    @property
    def touched_pages(self) -> int:
        return self._live_count + self._zero_count

    def resident_bytes(self) -> int:
        return self.touched_pages * self.process.page_size

    def __repr__(self) -> str:
        return (
            f"HeapArea({self.area_name!r}, live={self._live_count}, "
            f"zero={self._zero_count}, total={self.npages} pages)"
        )
