"""Page-content identity: chunks and page tokens.

Real TPS scanners (KSM, PowerVM AMS dedup) compare raw page bytes.  Storing
4 KiB of bytes per simulated page would be wasteful and slow, so the
simulator replaces byte contents with a 64-bit *token* per page, computed so
that the equality relation is the same one byte comparison would give:

* A logical datum (a ROM class, a JIT method body, a 64 KiB heap block, an
  NIO buffer) is a :class:`Chunk` with a ``content_id`` and a ``size``.
  Equal ``content_id`` + equal ``size`` means byte-identical data.
  ``content_id`` 0 is reserved for all-zero bytes.

* A page covered by a sequence of chunk slices gets a token hashed over the
  ``(content_id, slice offset within the chunk, slice length, offset within
  the page)`` of every slice.  Identical data at identical intra-page
  offsets therefore yields identical tokens — and *shifted* data yields
  different tokens, which is exactly the page-alignment sensitivity the
  paper discusses (Section III.B: a moved object "would no longer be
  shareable by using TPS").

* A page whose covering slices are all zero gets the reserved
  :data:`ZERO_TOKEN` (0), so zero-filled pages from different processes and
  VMs compare equal, as they do for KSM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sim.rng import stable_hash64

#: Token of the all-zero page.  Guaranteed never returned by either
#: :func:`repro.sim.rng.stable_hash64` or :func:`repro.sim.rng.mix64`.
ZERO_TOKEN = 0

#: Bound on the page-token memo.  Identical page layouts recur heavily —
#: every guest booted from the same image and every JVM loading the same
#: middleware lays out the same (content_id, offsets) per page — so the
#: BLAKE2b digest for a repeated layout is paid once per process.  The
#: bound only guards against pathological content churn.
TOKEN_MEMO_SIZE = 1 << 16


@lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _page_token(parts: Tuple[int, ...]) -> int:
    """Memoized token of one page's slice layout (the scan hot path)."""
    return stable_hash64("page", *parts)


def token_memo_stats() -> Dict[str, int]:
    """Hit/miss counters of the page-token memo (for micro-benchmarks)."""
    info = _page_token.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "entries": info.currsize,
        "max_entries": info.maxsize,
    }


def token_memo_clear() -> None:
    """Empty the page-token memo (micro-benchmarks measure from cold)."""
    _page_token.cache_clear()

#: ``content_id`` representing all-zero bytes inside a chunk sequence.
ZERO_CONTENT = 0


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


def page_tokens_for_chunks(
    chunks: Sequence[Chunk],
    page_size: int,
    base_offset: int = 0,
) -> List[int]:
    """Compute page tokens for a chunk sequence laid out contiguously.

    The sequence starts ``base_offset`` bytes into the first page; any bytes
    of a partially covered page that are not covered by a chunk are treated
    as zeros (freshly mapped anonymous memory).

    Args:
        chunks: the chunk sequence, in address order.
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
    total = sum(chunk.size for chunk in chunks)
    if total == 0:
        return []

    page_count = -(-(base_offset + total) // page_size)
    tokens: List[int] = []
    # Walk pages and chunks in lock-step.  ``cursor`` is the absolute byte
    # address (page 0 starts at 0); the first chunk begins at base_offset.
    chunk_index = 0
    chunk_start = base_offset  # absolute address where current chunk begins
    for page in range(page_count):
        page_begin = page * page_size
        page_end = page_begin + page_size
        parts: List[int] = []
        all_zero = True
        # Advance to the first chunk overlapping this page.
        while chunk_index < len(chunks):
            chunk = chunks[chunk_index]
            chunk_end = chunk_start + chunk.size
            if chunk_end <= page_begin:
                chunk_index += 1
                chunk_start = chunk_end
                continue
            if chunk_start >= page_end:
                break
            slice_begin = max(chunk_start, page_begin)
            slice_end = min(chunk_end, page_end)
            if not chunk.is_zero:
                all_zero = False
                parts.extend(
                    (
                        chunk.content_id,
                        slice_begin - chunk_start,  # offset within the chunk
                        slice_end - slice_begin,  # slice length
                        slice_begin - page_begin,  # offset within the page
                    )
                )
            if chunk_end > page_end:
                # Chunk continues on the next page; keep it current.
                break
            chunk_index += 1
            chunk_start = chunk_end
        if all_zero:
            tokens.append(ZERO_TOKEN)
        else:
            tokens.append(_page_token(tuple(parts)))
    return tokens


def uniform_tokens(content_ids: Iterable[int], page_size: int) -> List[int]:
    """Tokens for pages each wholly filled by a single chunk of page size.

    A fast path for components that manage page-granular data (e.g. the
    guest page cache, where each cached disk block is one page).
    """
    tokens = []
    for content_id in content_ids:
        if content_id == ZERO_CONTENT:
            tokens.append(ZERO_TOKEN)
        else:
            tokens.append(_page_token((content_id, 0, page_size, 0)))
    return tokens
