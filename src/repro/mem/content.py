"""Page-content identity: chunks and page tokens.

Real TPS scanners (KSM, PowerVM AMS dedup) compare raw page bytes.  Storing
4 KiB of bytes per simulated page would be wasteful and slow, so the
simulator replaces byte contents with a 64-bit *token* per page, computed so
that the equality relation is the same one byte comparison would give.  A
token is only ever compared for equality, so it comes from
:func:`repro.sim.rng.mix64_many` (splitmix64 over integers), never from
the BLAKE2b :func:`repro.sim.rng.stable_hash64`, which serves the hashes
whose value is read:

* A logical datum (a ROM class, a JIT method body, a 64 KiB heap block, an
  NIO buffer) is a :class:`Chunk` with a ``content_id`` and a ``size``.
  Equal ``content_id`` + equal ``size`` means byte-identical data.
  ``content_id`` 0 is reserved for all-zero bytes.

* Each non-zero chunk *slice* covering a page hashes its
  ``(content_id, slice offset within the chunk, slice length, offset within
  the page)`` under one fixed key, and a page's token is the sum (modulo
  2**64) of its slice hashes.  The slices of a page are disjoint and carry
  their offsets, so the sum stands for "the same data at the same
  offsets": identical data at identical intra-page offsets yields
  identical tokens — and *shifted* data yields different tokens, which is
  exactly the page-alignment sensitivity the paper discusses (Section
  III.B: a moved object "would no longer be shareable by using TPS").

* A page whose covering slices are all zero gets the reserved
  :data:`ZERO_TOKEN` (0), so zero-filled pages from different processes and
  VMs compare equal, as they do for KSM.  A non-zero page whose slice
  hashes sum to 0 gets 1 instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.sim.rng import mix64_many, stable_hash64

#: Token of the all-zero page.  Guaranteed never returned by either
#: :func:`repro.sim.rng.stable_hash64` or :func:`repro.sim.rng.mix64`,
#: nor by :func:`page_tokens` for a page holding non-zero data.
ZERO_TOKEN = 0

#: ``content_id`` representing all-zero bytes inside a chunk sequence.
ZERO_CONTENT = 0

#: Key of the slice hashes.
_SLICE_KEY = stable_hash64("page")

#: Layout pages computed since import (read by :func:`token_memo_stats`).
_computed = [0]


def token_memo_stats() -> Dict[str, int]:
    """Layout-page counters, under the names the page-token memo had.

    There is no memo: every page a layout covers is computed, so
    ``misses`` counts those pages and the other three keys read 0.
    """
    return {"hits": 0, "misses": _computed[0], "entries": 0, "max_entries": 0}


@dataclass(frozen=True)
class Chunk:
    """A logical run of bytes with a stable content identity.

    Attributes:
        content_id: 64-bit identity of the bytes; 0 means all-zero bytes.
        size: length in bytes (must be positive).
    """

    content_id: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"chunk size must be positive, got {self.size}")
        if self.content_id < 0:
            raise ValueError("content_id must be non-negative")

    @property
    def is_zero(self) -> bool:
        return self.content_id == ZERO_CONTENT


def zero_chunk(size: int) -> Chunk:
    """A chunk of ``size`` zero bytes."""
    return Chunk(ZERO_CONTENT, size)


def sum_slice_hashes(
    hashes: np.ndarray, pages: np.ndarray, page_count: int
) -> np.ndarray:
    """Page tokens from slice hashes: ``hashes[i]`` belongs to page
    ``pages[i]`` (ascending).  A page with no slice gets
    :data:`ZERO_TOKEN`; a page whose hashes sum to 0 gets 1."""
    tokens = np.zeros(page_count, np.uint64)
    if len(hashes):
        first = np.flatnonzero(np.diff(pages, prepend=-1))
        sums = np.add.reduceat(hashes, first)
        sums[sums == 0] = 1
        tokens[pages[first]] = sums
    return tokens


def page_tokens(
    content_ids: Sequence[int],
    sizes: Sequence[int],
    page_size: int,
    base_offset: int = 0,
) -> List[int]:
    """Compute page tokens for chunks laid out contiguously.

    Chunk ``i`` holds ``sizes[i]`` bytes of ``content_ids[i]``.  The
    sequence starts ``base_offset`` bytes into the first page; any bytes
    of a partially covered page that are not covered by a chunk are treated
    as zeros (freshly mapped anonymous memory).

    Args:
        content_ids: the chunks' content ids, in address order.
        sizes: the chunks' sizes in bytes (positive).
        page_size: page size in bytes.
        base_offset: start offset of the first chunk within the first page;
            must satisfy ``0 <= base_offset < page_size``.

    Returns:
        One token per page touched by the layout (possibly empty when the
        chunk list is empty).
    """
    if page_size <= 0:
        raise ValueError(f"page size must be positive, got {page_size}")
    if not 0 <= base_offset < page_size:
        raise ValueError(
            f"base_offset must be within one page (0..{page_size - 1}), "
            f"got {base_offset}"
        )
    ids = np.array(content_ids, np.uint64)
    sizes = np.array(sizes, np.int64)
    ends = base_offset + np.cumsum(sizes)
    if not len(ends):
        return []
    page_count = -(-int(ends[-1]) // page_size)
    _computed[0] += page_count
    # The non-zero chunks, then one row per page each one covers.
    data = ids != ZERO_CONTENT
    starts = (ends - sizes)[data]
    ends = ends[data]
    first = starts // page_size
    spans = (ends - 1) // page_size - first + 1
    chunk = np.repeat(np.arange(len(spans)), spans)
    pages = first[chunk] + np.arange(len(chunk)) - np.repeat(
        np.cumsum(spans) - spans, spans
    )
    page_begin = pages * page_size
    begin = np.maximum(starts[chunk], page_begin)
    end = np.minimum(ends[chunk], page_begin + page_size)
    hashes = mix64_many(
        _SLICE_KEY,
        ids[data][chunk],
        begin - starts[chunk],  # offset within the chunk
        end - begin,  # slice length
        begin - page_begin,  # offset within the page
    )
    return sum_slice_hashes(hashes, pages, page_count).tolist()


def page_tokens_for_chunks(
    chunks: Sequence[Chunk], page_size: int, base_offset: int = 0
) -> List[int]:
    """:func:`page_tokens` for a sequence of :class:`Chunk` objects."""
    ids = [chunk.content_id for chunk in chunks]
    sizes = [chunk.size for chunk in chunks]
    return page_tokens(ids, sizes, page_size, base_offset)
