"""Guest user processes: virtual address spaces and memory mappings.

A :class:`GuestProcess` owns a sparse page table (guest vpn → gfn) and a
list of :class:`Vma` regions.  Every VMA carries a ``tag`` naming the
component that owns it (e.g. ``"java:class-metadata"``); the paper's
analyzer combines these tags (the "debugging information of the Java VM",
§III.A) with the translation layers to attribute each host frame.

Anonymous pages are demand-allocated: a page that is never written has no
gfn and no host frame — the paper's methodology explicitly copes with
"pages ... not mapped to host physical memory".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.guestos.kernel import GuestKernel, OutOfGuestMemoryError, OwnerKind
from repro.guestos.pagecache import BackingFile
from repro.mem.address_space import PageTable, first_outside, int64_column
from repro.units import pages_for

#: Guard gap (in pages) left between successive VMAs.
_VMA_GUARD_PAGES = 16


@dataclass
class Vma:
    """One mapped region of a process's virtual address space."""

    start_vpn: int
    npages: int
    tag: str
    backing: Optional[BackingFile] = None
    file_offset_pages: int = 0

    @property
    def is_file_backed(self) -> bool:
        return self.backing is not None

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.npages

    def vpn_of(self, page_index: int) -> int:
        if not 0 <= page_index < self.npages:
            raise IndexError(
                f"page {page_index} outside VMA of {self.npages} pages"
            )
        return self.start_vpn + page_index


def _distinct(vpns: np.ndarray) -> np.ndarray:
    """``vpns`` without repeats, in order of first appearance."""
    if (vpns[1:] > vpns[:-1]).all():
        return vpns
    return np.array(list(dict.fromkeys(vpns.tolist())), np.int64)


class GuestProcess:
    """A user process inside a guest VM."""

    def __init__(self, kernel: GuestKernel, pid: int, name: str) -> None:
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.page_table = PageTable(f"{kernel.vm.name}:pid{pid}")
        self.vmas: List[Vma] = []
        self._va_cursor = 0x1000  # first usable vpn
        self._alive = True

    @property
    def page_size(self) -> int:
        return self.kernel.page_size

    @property
    def alive(self) -> bool:
        return self._alive

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def mmap_anon(self, num_bytes: int, tag: str) -> Vma:
        """Reserve anonymous memory; pages materialise on first write."""
        self._check_alive()
        npages = pages_for(num_bytes, self.page_size)
        if npages == 0:
            raise ValueError("cannot map an empty region")
        vma = Vma(self._va_cursor, npages, tag)
        self._va_cursor += npages + _VMA_GUARD_PAGES
        self.vmas.append(vma)
        return vma

    def mmap_file(
        self,
        backing: BackingFile,
        tag: str,
        offset_pages: int = 0,
        npages: Optional[int] = None,
    ) -> Vma:
        """Map a file read-only; pages materialise on first fault."""
        self._check_alive()
        if npages is None:
            npages = backing.npages - offset_pages
        if npages <= 0:
            raise ValueError("cannot map an empty file range")
        if offset_pages + npages > backing.npages:
            raise ValueError(
                f"mapping beyond EOF of {backing.file_id} "
                f"({offset_pages}+{npages} > {backing.npages})"
            )
        vma = Vma(self._va_cursor, npages, tag, backing, offset_pages)
        self._va_cursor += npages + _VMA_GUARD_PAGES
        self.vmas.append(vma)
        return vma

    def munmap(self, vma: Vma) -> None:
        """Unmap a VMA; anonymous gfns return to the guest free list."""
        self._check_alive()
        if vma not in self.vmas:
            raise ValueError("VMA does not belong to this process")
        self._unmap_vma(vma)
        self.vmas.remove(vma)

    def _unmap_vma(self, vma: Vma) -> None:
        for index in range(vma.npages):
            vpn = vma.start_vpn + index
            gfn = self.page_table.translate(vpn)
            if gfn is None:
                continue
            self.page_table.unmap(vpn)
            if vma.backing is not None:
                self.kernel.page_cache.note_unmapped(
                    vma.backing, vma.file_offset_pages + index
                )
            else:
                self.kernel.free_gfn(gfn)

    def release_all(self) -> None:
        """Process exit: drop every mapping."""
        for vma in self.vmas:
            self._unmap_vma(vma)
        self.vmas.clear()
        self._alive = False

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def write_token(self, vma: Vma, page_index: int, token: int) -> None:
        """Write one page of an anonymous VMA (faults it in if needed)."""
        self.write_pages(vma, [page_index], [token])

    def write_tokens(
        self, vma: Vma, tokens: Sequence[int], start_page: int = 0
    ) -> None:
        """Write a run of page tokens starting at ``start_page``."""
        if start_page + len(tokens) > vma.npages:
            raise ValueError(
                f"write of {len(tokens)} pages at {start_page} overflows "
                f"VMA of {vma.npages} pages"
            )
        self.write_pages(
            vma, range(start_page, start_page + len(tokens)), tokens
        )

    def write_pages(self, vma: Vma, pages, tokens) -> None:
        """Write ``tokens[i]`` at page ``pages[i]`` of an anonymous VMA.

        The bulk write path: the pages not yet faulted in get their gfns
        from one :meth:`GuestKernel.alloc_gfns` call and their mappings
        from one :meth:`PageTable.map_many`, and the writes go down in
        one :meth:`GuestVmBase.write_gfns`, all as int64 arrays.  The
        result is that of one :meth:`write_token` per row, in row order,
        down to the gfns taken from the free list; a page outside the
        VMA or an exhausted guest fails after the rows before it have
        landed.  ``pages`` and ``tokens`` may be numpy arrays.
        """
        pages = int64_column(pages)
        if not len(pages):
            return
        self._check_alive()
        if vma.is_file_backed:
            raise ValueError(
                f"VMA {vma.tag!r} is a read-only file mapping; "
                "writes are not modelled for file pages"
            )
        bad = first_outside(pages, vma.npages)
        if bad is not None:
            self.write_pages(vma, pages[:bad], tokens[:bad])
            vma.vpn_of(int(pages[bad]))  # raises
        vpns = pages + vma.start_vpn
        table = self.page_table
        gfns = table.translate_many(vpns)
        unmapped = gfns < 0
        if unmapped.any():
            missing = _distinct(vpns[unmapped])
            owner = self.kernel.owner_record(
                OwnerKind.PROCESS_ANON, self.pid, vma.tag
            )
            try:
                table.map_many(
                    missing, self.kernel.alloc_gfns(owner, len(missing))
                )
            except OutOfGuestMemoryError as exhausted:
                got = exhausted.gfns
                table.map_many(missing[: len(got)], got)
                cut = int(np.flatnonzero(vpns == missing[len(got)])[0])
                self.kernel.vm.write_gfns(
                    table.translate_many(vpns[:cut]), tokens[:cut]
                )
                raise
            gfns = table.translate_many(vpns)  # the rows just faulted in
        self.kernel.vm.write_gfns(gfns, tokens)

    def fault_file_pages(
        self, vma: Vma, start_page: int = 0, count: Optional[int] = None
    ) -> None:
        """Fault file pages in: map the page-cache gfns into the process.

        The unmapped pages of the range are filled through one
        :meth:`PageCache.page_gfns` call and mapped with one
        :meth:`PageTable.map_many`.
        """
        self._check_alive()
        if not vma.is_file_backed:
            raise ValueError(f"VMA {vma.tag!r} is not file-backed")
        if count is None:
            count = vma.npages - start_page
        pages = list(range(start_page, start_page + count))
        bad = first_outside(pages, vma.npages)
        if bad is not None:
            self.fault_file_pages(vma, start_page, bad)
            vma.vpn_of(pages[bad])  # raises
        mapped = self.page_table.is_mapped
        pages = [page for page in pages if not mapped(vma.start_vpn + page)]
        indices = [vma.file_offset_pages + page for page in pages]
        try:
            gfns = self.kernel.page_cache.page_gfns(vma.backing, indices)
        except OutOfGuestMemoryError as exhausted:
            self._map_file_pages(vma, pages, indices, exhausted.gfns)
            raise
        self._map_file_pages(vma, pages, indices, gfns)

    def _map_file_pages(
        self, vma: Vma, pages: List[int], indices: List[int], gfns: List[int]
    ) -> None:
        """Map the leading ``len(gfns)`` pages to their cached gfns."""
        count = len(gfns)
        self.page_table.map_many(
            [vma.start_vpn + page for page in pages[:count]], gfns
        )
        self.kernel.page_cache.note_mapped_many(vma.backing, indices[:count])

    def read_token(self, vma: Vma, page_index: int) -> Optional[int]:
        """Content token visible at a VMA page (None when untouched)."""
        gfn = self.page_table.translate(vma.vpn_of(page_index))
        if gfn is None:
            return None
        return self.kernel.vm.read_gfn(gfn)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_bytes(self) -> int:
        return len(self.page_table) * self.page_size

    def vma_of_vpn(self, vpn: int) -> Optional[Vma]:
        for vma in self.vmas:
            if vma.start_vpn <= vpn < vma.end_vpn:
                return vma
        return None

    def vma_by_tag(self, tag: str) -> List[Vma]:
        return [vma for vma in self.vmas if vma.tag == tag]

    def _check_alive(self) -> None:
        if not self._alive:
            raise RuntimeError(f"process {self.pid} ({self.name}) has exited")

    def __repr__(self) -> str:
        return (
            f"GuestProcess(pid={self.pid}, name={self.name!r}, "
            f"resident={self.resident_bytes() >> 20} MiB)"
        )
