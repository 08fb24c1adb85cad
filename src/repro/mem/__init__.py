"""Memory substrate: pages, content tokens, frames, and address spaces.

This package models physical memory the way a hypervisor's page-sharing
machinery sees it: as an array of fixed-size frames whose *content identity*
decides whether two frames can be merged copy-on-write.  Page contents are
represented by 64-bit tokens (see :mod:`repro.mem.content`); two simulated
pages are byte-identical exactly when their tokens are equal.
"""

from repro.mem.content import Chunk, page_tokens_for_chunks, ZERO_TOKEN
from repro.mem.region import Region
from repro.mem.physmem import HostPhysicalMemory
from repro.mem.address_space import PageTable

__all__ = [
    "Chunk",
    "page_tokens_for_chunks",
    "ZERO_TOKEN",
    "Region",
    "HostPhysicalMemory",
    "PageTable",
]
