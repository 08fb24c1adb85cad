"""Satori: enlightened page sharing via a sharing-aware block device.

Miłoś et al.'s Satori (USENIX '09 — the paper's reference [28]) removes
the scanning cost of TPS for the page cache: since guests booted from the
same image read the same disk blocks, the *block device* already knows
two reads are identical and can share the destination pages immediately —
no scan latency, no scanner CPU.

Here the registry keys on the content token of file-backed page-cache
fills.  When a guest reads a block whose content is already resident in
any guest, the fill maps the existing frame copy-on-write instead of
allocating a new one.  The paper contrasts this with its own approach:
Satori covers the guest kernel's page cache, the paper's technique covers
the Java class area — and through the shared class cache *file*, the
class area becomes file-backed, so the two mechanisms compose (the
benchmark shows the class pages shared at fill time with zero scanning).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.mem.address_space import PageTable, int64_column
from repro.mem.physmem import HostPhysicalMemory


def _share_resident(
    physmem: HostPhysicalMemory, table: PageTable, vpn: int, fid: int
) -> None:
    """Back a fill at ``vpn`` with the resident frame ``fid`` (same
    content), write-protected like a KSM-merged page.

    Sharing wins over an intact huge block, as in a KSM merge: a block
    holding either frame is split first (reason ``satori-share``).  A
    page already at ``vpn`` is re-pointed when it holds the same
    content; when it holds other content (a gfn the guest reused before
    the host saw a write), the fill overwrites it, so its mapping goes.
    """
    physmem.split_block_of(fid, "satori-share")
    physmem.mark_ksm_stable(fid)
    old = table.translate(vpn)
    if old is None:
        physmem.share_mapping(table, vpn, fid)
    elif physmem.tokens[old] == physmem.tokens[fid]:
        physmem.split_block_of(old, "satori-share")
        physmem.merge_into(table, vpn, fid)
    else:
        physmem.unmap(table, vpn)
        physmem.share_mapping(table, vpn, fid)


class SatoriRegistry:
    """Host-side map from disk-block content to the resident frame."""

    def __init__(self, physmem: HostPhysicalMemory) -> None:
        self.physmem = physmem
        self._by_token: Dict[int, int] = {}
        self.immediate_shares = 0
        self.fills = 0

    def fill_pages(
        self, table: PageTable, vpns: Sequence[int], tokens: Sequence[int]
    ) -> None:
        """Back page-cache fills, sharing with an existing copy if any.

        Row ``i`` fills ``vpns[i]`` with ``tokens[i]``, in order.  A row
        whose block is already resident maps that frame, which is marked
        KSM-stable so later writes copy-on-write exactly like a
        scanner-merged page; any other row is written and its frame
        registered.
        """
        physmem = self.physmem
        by_token = self._by_token
        tokens = tokens.tolist() if hasattr(tokens, "tolist") else tokens
        for vpn, token in zip(int64_column(vpns).tolist(), tokens):
            self.fills += 1
            existing = by_token.get(token)
            if existing is not None:
                if (
                    physmem.is_live(existing)
                    and physmem.tokens[existing] == token
                ):
                    _share_resident(physmem, table, vpn, existing)
                    self.immediate_shares += 1
                    continue
                del by_token[token]
            by_token[token] = physmem.write_token(table, vpn, token)

    @property
    def tracked_blocks(self) -> int:
        return len(self._by_token)

    def saved_bytes(self) -> int:
        """Frames avoided so far (mappings minus frames, for its pages)."""
        return self.immediate_shares * self.physmem.page_size

    def prune(self) -> int:
        """Drop registry entries whose frame has been freed or rewritten."""
        physmem = self.physmem
        dead = [
            token
            for token, fid in self._by_token.items()
            if not physmem.is_live(fid) or physmem.tokens[fid] != token
        ]
        for token in dead:
            del self._by_token[token]
        return len(dead)
