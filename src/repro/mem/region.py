"""Region: an append-only chunk layout that materialises page tokens.

JVM components (class segments, heap, JIT code cache, ...) build their
memory images by appending chunks to a :class:`Region` and then asking for
the page tokens to write into their process address space.  The region
records the byte offset of every chunk so callers can reason about
alignment — the property the paper's preloading technique exploits.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.mem.content import Chunk, page_tokens


class Region:
    """An append-only sequence of chunks with page-token materialisation.

    The chunks live in two columns, content ids and sizes, not as one
    :class:`Chunk` object each.
    """

    def __init__(self, page_size: int, base_offset: int = 0) -> None:
        if page_size <= 0:
            raise ValueError(f"page size must be positive, got {page_size}")
        if not 0 <= base_offset < page_size:
            raise ValueError(
                f"base_offset must be within one page, got {base_offset}"
            )
        self._page_size = page_size
        self._base_offset = base_offset
        self._ids = array("Q")
        self._sizes = array("q")
        self._total = 0
        self._tokens: Optional[List[int]] = None  # cache, invalidated on append

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def base_offset(self) -> int:
        return self._base_offset

    @property
    def total_bytes(self) -> int:
        """Bytes covered by appended chunks (excludes the base offset)."""
        return self._total

    @property
    def page_count(self) -> int:
        """Number of pages the layout touches."""
        if self._total == 0:
            return 0
        return -(-(self._base_offset + self._total) // self._page_size)

    @property
    def chunk_count(self) -> int:
        return len(self._ids)

    def append(self, content_id: int, size: int) -> int:
        """Append a chunk; returns its byte offset from the region start."""
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        if content_id < 0:
            raise ValueError("content_id must be non-negative")
        offset = self._total
        self._ids.append(content_id)
        self._sizes.append(size)
        self._total += size
        self._tokens = None
        return offset

    def append_chunk(self, chunk: Chunk) -> int:
        """Append an existing :class:`Chunk`; returns its byte offset."""
        return self.append(chunk.content_id, chunk.size)

    def pad_to_page(self) -> int:
        """Zero-pad so the next append starts page-aligned.

        Returns the number of padding bytes added (0 when already aligned).
        """
        end = self._base_offset + self._total
        remainder = end % self._page_size
        if remainder == 0:
            return 0
        padding = self._page_size - remainder
        self.append(0, padding)
        return padding

    def chunk_offset(self, index: int) -> int:
        """Byte offset of chunk ``index`` from the region start."""
        index = range(len(self._sizes))[index]  # IndexError when out of range
        return sum(self._sizes[:index])

    def chunk_page_span(self, index: int) -> Tuple[int, int]:
        """(first page, last page) indices covered by chunk ``index``."""
        begin = self._base_offset + self.chunk_offset(index)
        end = begin + self._sizes[index] - 1
        return begin // self._page_size, end // self._page_size

    def page_tokens(self) -> List[int]:
        """Materialise page tokens for the current layout (cached)."""
        if self._tokens is None:
            self._tokens = page_tokens(
                self._ids, self._sizes, self._page_size, self._base_offset
            )
        return list(self._tokens)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"Region(chunks={len(self._ids)}, bytes={self._total}, "
            f"pages={self.page_count})"
        )
