"""Paging to RAM: compressed-memory stores (§VI related work).

The paper contrasts TPS with the "paging to RAM" family — Difference
Engine's whole-page compression on Xen and PowerVM's Active Memory
Expansion.  Their trade-off, which this model reproduces for the
comparison benchmark:

* compression saves memory on *any* cold page, identical or not — so it
  can beat TPS on Java memory, whose pages are rarely identical;
* but **every access to a compressed page must restore it** (decompress
  and re-allocate a frame), while reading a TPS-shared page is free.

Compressibility is modelled per content: zero pages compress to almost
nothing; other pages get a deterministic ratio drawn from their content
token, centred on the ~2× the AME literature reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.mem.address_space import PageTable
from repro.mem.content import ZERO_TOKEN
from repro.mem.physmem import STABLE, HostPhysicalMemory
from repro.sim.rng import stable_hash64

#: Decompression cost per access (µs); dwarfs a RAM read but beats disk.
DEFAULT_DECOMPRESS_US = 18.0

#: Compression cost per page (µs).
DEFAULT_COMPRESS_US = 25.0


def compressed_fraction(token: int) -> float:
    """Deterministic compressed size as a fraction of the page size."""
    if token == ZERO_TOKEN:
        return 0.004  # a zero page stores as a header only
    # Content-dependent ratio in [0.30, 0.70], mean ≈ 0.5 (2:1).
    return 0.30 + (stable_hash64("compress", token) % 1000) / 1000 * 0.40


@dataclass
class CompressionStats:
    """Counters for the compressed store."""

    pages_compressed: int = 0
    pages_restored: int = 0
    bytes_stored_raw: int = 0
    bytes_stored_compressed: int = 0
    cpu_us: float = 0.0

    @property
    def bytes_saved(self) -> int:
        return self.bytes_stored_raw - self.bytes_stored_compressed


class CompressedRamStore:
    """A host-side compressed pool for cold guest pages."""

    def __init__(
        self,
        physmem: HostPhysicalMemory,
        decompress_us: float = DEFAULT_DECOMPRESS_US,
        compress_us: float = DEFAULT_COMPRESS_US,
    ) -> None:
        self.physmem = physmem
        self.decompress_us = decompress_us
        self.compress_us = compress_us
        #: (table name, vpn) -> (token, compressed bytes)
        self._pool: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self.stats = CompressionStats()

    # ------------------------------------------------------------------

    def compress_page(self, table: PageTable, vpn: int) -> int:
        """Move one mapped page into the pool; returns bytes saved.

        The frame is released; the page's content lives on, compressed.
        Shared (KSM-stable) frames are skipped — compressing them would
        *lose* memory, since TPS already stores them once.
        """
        key = (table.name, vpn)
        if key in self._pool:
            raise ValueError(f"{table.name}:{vpn:#x} is already compressed")
        fid = table.translate(vpn)
        if fid is None:
            raise KeyError(f"{table.name}: vpn {vpn:#x} is not mapped")
        token = self.physmem.token_of(fid)
        if self.physmem.states[fid] == STABLE:
            return 0
        page_size = self.physmem.page_size
        compressed = int(page_size * compressed_fraction(token))
        self.physmem.unmap(table, vpn)
        self._pool[key] = (token, compressed)
        self.physmem.charge_pool_bytes(compressed)
        self.stats.pages_compressed += 1
        self.stats.bytes_stored_raw += page_size
        self.stats.bytes_stored_compressed += compressed
        self.stats.cpu_us += self.compress_us
        return page_size - compressed

    def is_compressed(self, table: PageTable, vpn: int) -> bool:
        return (table.name, vpn) in self._pool

    def pooled_rows(self, table: PageTable, vpns: List[int]) -> List[int]:
        """Ascending rows of ``vpns`` whose page is in the pool (the
        first row of each such vpn): the rows a range access faults on."""
        pool = self._pool
        if not pool:
            return []
        name = table.name
        rows: List[int] = []
        seen: set = set()
        for row, vpn in enumerate(vpns):
            if (name, vpn) in pool and vpn not in seen:
                seen.add(vpn)
                rows.append(row)
        return rows

    def access_page(self, table: PageTable, vpn: int) -> int:
        """Fault on a compressed page: restore it and pay the CPU cost.

        Returns the frame id now backing the page.
        """
        key = (table.name, vpn)
        try:
            token, compressed = self._pool.pop(key)
        except KeyError:
            raise KeyError(
                f"{table.name}: vpn {vpn:#x} is not in the compressed pool"
            ) from None
        page_size = self.physmem.page_size
        self.physmem.release_pool_bytes(compressed)
        self.stats.pages_restored += 1
        self.stats.bytes_stored_raw -= page_size
        self.stats.bytes_stored_compressed -= compressed
        self.stats.cpu_us += self.decompress_us
        return self.physmem.map_token(table, vpn, token)

    def drop_page(self, table: PageTable, vpn: int) -> None:
        """Discard a compressed page without restoring it.

        Used when the guest frees/balloons a page whose only copy lives in
        the pool: the content is dead, so no decompression is owed, but
        the pool bytes must still be returned to the host.
        """
        key = (table.name, vpn)
        try:
            _, compressed = self._pool.pop(key)
        except KeyError:
            raise KeyError(
                f"{table.name}: vpn {vpn:#x} is not in the compressed pool"
            ) from None
        page_size = self.physmem.page_size
        self.physmem.release_pool_bytes(compressed)
        self.stats.bytes_stored_raw -= page_size
        self.stats.bytes_stored_compressed -= compressed

    # ------------------------------------------------------------------

    def sweep(self, table: PageTable, limit: Optional[int] = None) -> int:
        """Compress every (non-stable) mapped page of ``table``.

        Returns total bytes saved.  ``limit`` caps the number of pages
        actually moved into the pool; pages :meth:`compress_page` skips
        (KSM-stable frames) do not consume the budget.
        """
        saved = 0
        count = 0
        for vpn in table.mapped_vpns().tolist():
            if limit is not None and count >= limit:
                break
            if self.is_compressed(table, vpn):
                continue
            saved += self.compress_page(table, vpn)
            if self.is_compressed(table, vpn):
                count += 1
        return saved

    @property
    def pool_pages(self) -> int:
        return len(self._pool)

    @property
    def pool_bytes(self) -> int:
        return self.stats.bytes_stored_compressed

    def audit_pool_bytes(self) -> int:
        """Recount pool bytes from the pool entries themselves.

        Ground truth for the ``validate`` invariant: must equal both
        :attr:`pool_bytes` (the running counter) and the share this store
        charged to :attr:`HostPhysicalMemory.pool_bytes`.
        """
        return sum(compressed for _, compressed in self._pool.values())
