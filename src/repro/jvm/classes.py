"""Class metadata: ROM/RAM classes, class segments, and cache attachment.

Table IV's "class metadata" category.  Without the shared cache, the JVM
allocates *class segments* with malloc and packs each loaded class's ROM
part (bytecode, constant pool, literals) and RAM part (method tables,
resolved references) into them **in load order** — and because the load
order is driven by the running Java program, it differs between processes
(§III.B).  Identical classes therefore end up at different page offsets in
every VM and TPS finds nothing to merge.

With ``-Xshareclasses`` the ROM parts come from the memory-mapped cache
file instead: the layout is the file's layout, identical everywhere the
same file content is used.  Only the per-process RAM parts still go to
private segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.guestos.malloc import MallocModel
from repro.guestos.process import GuestProcess, Vma
from repro.jvm.sharedcache import SharedClassCache
from repro.mem.region import Region
from repro.sim.rng import RngFactory, mix64, stable_hash64
from repro.units import KiB
from repro.workloads.classsets import JavaClassDef

#: Size of one class segment allocation (J9 grows class memory in segments;
#: ≥ the glibc mmap threshold, so segments are page-aligned in every
#: process — the *order and packing* inside them is what differs).
SEGMENT_BYTES = 512 * KiB

TAG_SEGMENTS = "java:class-metadata"
TAG_CACHE = "java:scc"


@dataclass
class _Segment:
    """One class segment being filled."""

    vma: Vma
    region: Region
    first_page: int  # page index of the segment data within its VMA

    def remaining(self, capacity: int) -> int:
        return capacity - self.region.total_bytes


class ClassMetadata:
    """The class-metadata component of one JVM process."""

    def __init__(
        self,
        process: GuestProcess,
        malloc: MallocModel,
        rng: RngFactory,
        cache: Optional[SharedClassCache] = None,
        cache_vma: Optional[Vma] = None,
    ) -> None:
        self.process = process
        self.malloc = malloc
        self.rng = rng
        self.cache = cache
        self.cache_vma = cache_vma
        if (cache is None) != (cache_vma is None):
            raise ValueError(
                "cache and cache_vma must be provided together"
            )
        self._segments: List[_Segment] = []
        self._loaded: Set[str] = set()
        self._loaded_from_cache = 0
        self._loaded_privately = 0
        self._faulted_cache_pages: Set[int] = set()
        self._header_faulted = False
        self._header_pages = 0
        self._ram_key = stable_hash64(
            "ramclass", process.kernel.vm.name, process.pid
        )

    # ------------------------------------------------------------------

    def load_classes(self, classes: List[JavaClassDef]) -> None:
        """Load classes in the given order; flushes segment pages at the end."""
        for cls in classes:
            self._load_one(cls)
        self._flush_segments()

    def _load_one(self, cls: JavaClassDef) -> None:
        if cls.name in self._loaded:
            return
        self._loaded.add(cls.name)
        from_cache = (
            self.cache is not None
            and cls.cacheable
            and self.cache.contains(cls.name)
        )
        if from_cache:
            self._fault_cache_class(cls)
            self._loaded_from_cache += 1
            # Only the writable RAM part is allocated privately.
            self._append_to_segment(self._ram_content_id(cls), cls.ram_bytes)
        else:
            self._loaded_privately += 1
            # ROM and RAM parts are interleaved in the segment, in load
            # order — this is the layout TPS cannot match across processes.
            self._append_to_segment(cls.rom_content_id, cls.rom_bytes)
            self._append_to_segment(self._ram_content_id(cls), cls.ram_bytes)

    def _ram_content_id(self, cls: JavaClassDef) -> int:
        """RAM-class content: pointer-rich, unique to this process.

        ``rom_content_id`` is already unique per class name and
        middleware, so it stands in for the class.
        """
        return mix64(self._ram_key, cls.rom_content_id)

    def _fault_cache_class(self, cls: JavaClassDef) -> None:
        """Touch the cache-file pages holding this class's ROM data."""
        assert self.cache is not None and self.cache_vma is not None
        if not self._header_faulted:
            # The header (class directory, string table) is read on attach.
            from repro.jvm.sharedcache import HEADER_BYTES

            header_pages = -(-HEADER_BYTES // self.process.page_size)
            self.process.fault_file_pages(self.cache_vma, 0, header_pages)
            self._header_faulted = True
            self._header_pages = header_pages
        span = self.cache.page_span_of(cls.name)
        if not self._faulted_cache_pages.issuperset(span):
            # Pages a neighbouring class already faulted in are mapped,
            # and the range fault skips them.
            self.process.fault_file_pages(
                self.cache_vma, span.start, len(span)
            )
            self._faulted_cache_pages.update(span)

    # ------------------------------------------------------------------
    # Segment packing
    # ------------------------------------------------------------------

    def _append_to_segment(self, content_id: int, size: int) -> None:
        if size <= 0:
            return
        if (
            not self._segments
            or self._segments[-1].remaining(SEGMENT_BYTES) < size
        ):
            self._open_segment()
        self._segments[-1].region.append(content_id, size)

    def _open_segment(self) -> None:
        # Flush the previous segment before starting a new one so its final
        # page contents land in memory.
        if self._segments:
            self._flush_segment(self._segments[-1])
        block = self.malloc.malloc(SEGMENT_BYTES, tag=TAG_SEGMENTS)
        region = Region(self.process.page_size, base_offset=block.page_offset)
        self._segments.append(_Segment(block.vma, region, block.first_page))

    def _flush_segment(self, segment: _Segment) -> None:
        tokens = segment.region.page_tokens()
        if tokens:
            self.process.write_tokens(
                segment.vma, tokens, start_page=segment.first_page
            )

    def _flush_segments(self) -> None:
        if self._segments:
            self._flush_segment(self._segments[-1])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def loaded_count(self) -> int:
        return len(self._loaded)

    @property
    def loaded_from_cache(self) -> int:
        return self._loaded_from_cache

    @property
    def loaded_privately(self) -> int:
        return self._loaded_privately

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def faulted_cache_pages(self) -> int:
        return len(self._faulted_cache_pages) + self._header_pages

    def segment_resident_bytes(self) -> int:
        return sum(
            segment.region.page_count for segment in self._segments
        ) * self.process.page_size
