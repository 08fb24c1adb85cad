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

import numpy as np

from repro.guestos.process import GuestProcess, Vma
from repro.mem.content import ZERO_TOKEN
from repro.sim.rng import mix64_many, stable_hash64

TAG_HEAP = "java:heap"

#: Page-state sentinels (non-negative values are live epochs).
UNTOUCHED = -2
ZEROED = -1

#: Knuth multiplicative constant used for cheap deterministic sampling.
_MIX = 2654435761


class HeapArea:
    """One contiguous heap range (whole flat heap, nursery, or tenured).

    Page states live in one int64 array, so every bulk operation picks
    its pages with one numpy mask and hands them, with their tokens, to
    :meth:`GuestProcess.write_pages` in a single call.
    """

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
        self._state = np.full(self.npages, UNTOUCHED, dtype=np.int64)
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

    def _write_live_pages(self, pages: np.ndarray, epoch: int) -> int:
        """Make ``pages`` (distinct, in write order) live at ``epoch``."""
        previous = self._state[pages]
        self._zero_count -= int(np.count_nonzero(previous == ZEROED))
        self._live_count += int(np.count_nonzero(previous < 0))
        self._state[pages] = epoch
        self.process.write_pages(
            self.vma, pages, mix64_many(self._key, pages, epoch)
        )
        return len(pages)

    def _write_zero_pages(self, pages: np.ndarray) -> int:
        """Zero-fill the live pages among ``pages`` (in write order)."""
        pages = pages[self._state[pages] != ZEROED]
        self._live_count -= int(np.count_nonzero(self._state[pages] >= 0))
        self._state[pages] = ZEROED
        self._zero_count += len(pages)
        self.process.write_pages(self.vma, pages, [ZERO_TOKEN] * len(pages))
        return len(pages)

    def write_live(self, page: int, epoch: int) -> None:
        self._write_live_pages(np.array([page]), epoch)

    def write_zero(self, page: int) -> None:
        self._write_zero_pages(np.array([page]))

    def fill_live(self, first_page: int, count: int, epoch: int) -> None:
        self._write_live_pages(
            np.arange(first_page, first_page + max(0, count)), epoch
        )

    # ------------------------------------------------------------------
    # Bulk operations used by the GC policies
    # ------------------------------------------------------------------

    def rewrite_live(self, epoch: int) -> int:
        """Re-tokenise every live page (object movement under compaction)."""
        return self._write_live_pages(np.flatnonzero(self._state >= 0), epoch)

    def dirty_fraction(self, fraction: float, epoch: int) -> int:
        """Dirty a deterministic sample of live pages (headers, stores)."""
        if fraction <= 0:
            return 0
        threshold = int(fraction * (1 << 32))
        live = np.flatnonzero(self._state >= 0)
        sample = (
            (live.astype(np.uint64) * np.uint64(_MIX))
            ^ np.uint64(epoch * 0x9E3779B9)
        ) & np.uint64(0xFFFFFFFF)
        return self._write_live_pages(live[sample < threshold], epoch)

    def zero_tail(self, num_pages: int) -> int:
        """Zero-fill the top ``num_pages`` of the touched range (post-GC)."""
        live = np.flatnonzero(self._state >= 0)
        return self._write_zero_pages(live[::-1][: max(0, num_pages)])

    def allocate_from_zeros(self, num_pages: int, epoch: int) -> int:
        """Reuse zeroed pages for fresh allocation (TLAB refills)."""
        zeroed = np.flatnonzero(self._state == ZEROED)
        return self._write_live_pages(zeroed[: max(0, num_pages)], epoch)

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
