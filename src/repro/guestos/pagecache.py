"""Backing files and the guest page cache.

Files are the unit of cross-VM content identity: two guests booted from the
same base disk image cache byte-identical file pages, which is why the
paper sees ≈50 % of the guest-kernel area merge (Fig. 2) and why copying
one shared-class-cache file to every VM makes class pages identical.

A :class:`BackingFile` is identified by a ``file_id`` string; equal ids
mean equal contents.  Page contents are either generated from the id
(ordinary program/image files: ``mix64`` of the page index under a key
hashed once from the id) or supplied explicitly as a token list (the
shared class cache, whose layout is built by
:class:`repro.jvm.sharedcache.SharedClassCache`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.mem.address_space import int64_column
from repro.mem.content import ZERO_TOKEN
from repro.sim.rng import mix64_many, stable_hash64


class BackingFile:
    """A file whose pages can be mapped or cached."""

    def __init__(
        self,
        file_id: str,
        size_bytes: int,
        page_size: int,
        tokens: Optional[List[int]] = None,
    ) -> None:
        if size_bytes < 0:
            raise ValueError("file size must be non-negative")
        self.file_id = file_id
        self.size_bytes = size_bytes
        self.page_size = page_size
        self._npages = -(-size_bytes // page_size) if size_bytes else 0
        if tokens is not None and len(tokens) != self._npages:
            raise ValueError(
                f"{file_id}: token list covers {len(tokens)} pages but the "
                f"file has {self._npages}"
            )
        self._tokens = tokens
        self._key = None if tokens is not None else stable_hash64(
            "file", file_id
        )

    @property
    def npages(self) -> int:
        return self._npages

    def page_token(self, index: int) -> int:
        """Content token of file page ``index``."""
        return self.page_tokens([index])[0]

    def page_tokens(self, indices: Sequence[int]) -> List[int]:
        """Content tokens of file pages ``indices``."""
        npages = self._npages
        if indices and not (0 <= min(indices) and max(indices) < npages):
            index = next(i for i in indices if not 0 <= i < npages)
            raise IndexError(
                f"{self.file_id}: page {index} out of range "
                f"(file has {npages} pages)"
            )
        if self._tokens is not None:
            return list(map(self._tokens.__getitem__, indices))
        return mix64_many(self._key, indices).tolist()

    def copy_as(self, file_id: str) -> "BackingFile":
        """A byte-identical copy under a new path/identity.

        The *content identity* is preserved: page tokens are materialised
        from the source so the copy's pages stay byte-identical to the
        original — the property the paper's cache-copy deployment needs.
        """
        tokens = self.page_tokens(range(self._npages))
        return BackingFile(file_id, self.size_bytes, self.page_size, tokens)

    def __repr__(self) -> str:
        return f"BackingFile({self.file_id!r}, {self.size_bytes} bytes)"


def zero_file(file_id: str, size_bytes: int, page_size: int) -> BackingFile:
    """A file full of zero bytes (sparse cache files start this way)."""
    npages = -(-size_bytes // page_size) if size_bytes else 0
    return BackingFile(file_id, size_bytes, page_size, [ZERO_TOKEN] * npages)


class PageCache:
    """The guest kernel's page cache: one guest-physical page per cached
    file page, shared by every process in this guest that maps the file."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        # (file_id, page index) -> gfn
        self._pages: Dict[tuple, int] = {}
        # (file_id, page index) -> number of process mappings
        self._mapcount: Dict[tuple, int] = {}

    def page_gfn(self, backing: BackingFile, index: int) -> int:
        """gfn of the cached page, filling the cache on a miss."""
        return self.page_gfns(backing, [index])[0]

    def page_gfns(self, backing: BackingFile, indices) -> List[int]:
        """Bulk :meth:`page_gfn`: one gfn per file page index.

        The misses are allocated and filled in one call per layer, in
        the order one :meth:`page_gfn` per index would fill them.
        """
        from repro.guestos.kernel import OutOfGuestMemoryError, OwnerKind

        file_id = backing.file_id
        pages = self._pages
        keys = [(file_id, index) for index in indices]
        missing = [key for key in dict.fromkeys(keys) if key not in pages]
        if missing:
            kernel = self._kernel
            owner = kernel.owner_record(OwnerKind.PAGE_CACHE, tag=file_id)
            try:
                gfns = kernel.alloc_gfns(owner, len(missing))
            except OutOfGuestMemoryError as exhausted:
                self._fill(backing, missing, exhausted.gfns)
                # What the leading indices got before memory ran out.
                cut = keys.index(missing[len(exhausted.gfns)])
                exhausted.gfns = [pages[key] for key in keys[:cut]]
                raise
            self._fill(backing, missing, gfns)
        return [pages[key] for key in keys]

    def _fill(self, backing: BackingFile, keys: List[tuple], gfns) -> None:
        """Read ``keys[i]`` from disk into ``gfns[i]`` and cache it."""
        keys = keys[: len(gfns)]
        # A disk read: hypervisors with a sharing-aware block device
        # (Satori) can share the destination page at fill time.
        self._kernel.vm.write_gfns_filebacked(
            gfns, backing.page_tokens([index for _, index in keys])
        )
        self._pages.update(zip(keys, int64_column(gfns).tolist()))

    def note_mapped(self, backing: BackingFile, index: int) -> None:
        self.note_mapped_many(backing, [index])

    def note_mapped_many(self, backing: BackingFile, indices) -> None:
        """Count one more process mapping of each file page index."""
        counts = self._mapcount
        file_id = backing.file_id
        for index in indices:
            key = (file_id, index)
            counts[key] = counts.get(key, 0) + 1

    def note_unmapped(self, backing: BackingFile, index: int) -> None:
        key = (backing.file_id, index)
        count = self._mapcount.get(key, 0) - 1
        if count <= 0:
            self._mapcount.pop(key, None)
        else:
            self._mapcount[key] = count

    def mapcount(self, file_id: str, index: int) -> int:
        """How many process mappings reference this cached page."""
        return self._mapcount.get((file_id, index), 0)

    def evict_unmapped(self, max_pages: int) -> int:
        """Drop up to ``max_pages`` clean cache pages no process maps.

        This is the reclaim path memory pressure (or a balloon) triggers:
        the gfns go back to the guest free list.  Returns pages evicted.
        """
        if max_pages <= 0:
            return 0
        evicted = 0
        for key in list(self._pages.keys()):
            if evicted >= max_pages:
                break
            if self._mapcount.get(key, 0) > 0:
                continue
            gfn = self._pages.pop(key)
            self._kernel.free_gfn(gfn)
            evicted += 1
        return evicted

    @property
    def cached_pages(self) -> int:
        return len(self._pages)

    def cached_bytes(self) -> int:
        return len(self._pages) * self._kernel.page_size

    def gfns(self) -> List[int]:
        return list(self._pages.values())
