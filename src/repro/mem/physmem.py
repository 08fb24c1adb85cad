"""Host physical memory: a frame table with copy-on-write semantics.

Frames are identified by monotonically increasing ids (never reused, so a
stale frame id held by the KSM stable tree can always be detected).  A frame
records its content token, its mapping refcount, and whether it is a merged
KSM-stable frame — stable frames are write-protected, so any write to one
triggers a copy-on-write break, even when only a single mapper remains.

The frame table also tracks *capacity*: the hypervisor host in the paper has
6 GB of RAM and the consolidation experiments (Figs. 7–8) depend on what
happens when the working set exceeds it.  Exceeding capacity is allowed
(the host starts paging); the byte balance is exposed so the paging model
in :mod:`repro.perf` can compute the penalty.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.mem.address_space import PageTable
from repro.mem.content import ZERO_TOKEN

_MASK64 = (1 << 64) - 1


class FrameMirror:
    """Dense, fid-indexed shadow of the frame table.

    The KSM scanner needs columnar access to per-frame state
    (content token, alive/stable) without probing the ``fid -> Frame``
    dict one page at a time.  Because fids are monotonic and never
    reused, the mirror can be three flat arrays indexed by fid:

    * ``tokens`` — the exact Python content token per fid (tokens are
      full unsigned 64-bit hashes, and tests may use arbitrary ints, so
      exactness lives in a list);
    * ``masked`` — ``token & 2**64-1`` in an ``array('Q')``, giving a
      zero-copy ``np.frombuffer`` view for vectorized group-by keys (a
      masked collision merely routes a group to the slow path — it can
      never change results);
    * ``states`` — a ``bytearray`` of {FREE, ACTIVE, STABLE}, likewise
      viewable zero-copy as uint8;
    * ``refs`` — the mapping refcount per fid in an ``array('q')``
      (zero-copy int64 view), which lets the scanner compute the
      per-pass sharing gauges without touching a single ``Frame``.

    Slot 0 is a permanent FREE pad (fids start at 1), which lets the
    scanner clamp missing translations to index 0 instead of
    branch-filtering them.  The mirror is maintained by
    :class:`HostPhysicalMemory` on every frame mutation once attached;
    attachment is idempotent and backfills from the live frame table.
    """

    FREE = 0
    ACTIVE = 1
    STABLE = 2

    __slots__ = ("tokens", "masked", "states", "refs")

    def __init__(self, next_fid: int, frames: Dict[int, "Frame"]) -> None:
        self.tokens: List[int] = [0] * next_fid
        self.masked = array("Q", bytes(8 * next_fid))
        self.states = bytearray(next_fid)
        self.refs = array("q", bytes(8 * next_fid))
        for fid, frame in frames.items():
            self.tokens[fid] = frame.token
            self.masked[fid] = frame.token & _MASK64
            self.states[fid] = (
                FrameMirror.STABLE if frame.ksm_stable else FrameMirror.ACTIVE
            )
            self.refs[fid] = frame.refcount

    def note_alloc(self, fid: int, token: int) -> None:
        # fids are handed out sequentially, so the new slot is always
        # exactly one past the end.
        self.tokens.append(token)
        self.masked.append(token & _MASK64)
        self.states.append(FrameMirror.ACTIVE)
        self.refs.append(1)

    def note_free(self, fid: int) -> None:
        self.states[fid] = FrameMirror.FREE
        self.refs[fid] = 0

    def note_token(self, fid: int, token: int) -> None:
        self.tokens[fid] = token
        self.masked[fid] = token & _MASK64

    def note_stable(self, fid: int) -> None:
        self.states[fid] = FrameMirror.STABLE


class Frame:
    """One physical page frame."""

    __slots__ = ("token", "refcount", "ksm_stable", "block")

    def __init__(self, token: int) -> None:
        self.token = token
        self.refcount = 1
        self.ksm_stable = False
        #: Id of the huge block this frame belongs to (0 = none).
        self.block = 0

    def __repr__(self) -> str:
        flag = " stable" if self.ksm_stable else ""
        if self.block:
            flag += f" block={self.block}"
        return f"Frame(token={self.token:#x}, refs={self.refcount}{flag})"


class HugeBlock:
    """One intact huge mapping: a run of frames grouped under one PMD.

    A block is a *grouping overlay* over ``npages`` consecutively mapped
    host vpns of a single page table — the member frames keep their
    individual 4 KiB content tokens, so splitting a block changes no
    content and KSM savings after a split are identical to the
    all-4-KiB world.  While a block is intact its frames are pinned
    exclusive: they cannot be KSM-merged, promoted stable, or shared
    into another table without splitting the block first (the guards in
    :class:`HostPhysicalMemory` enforce this).
    """

    __slots__ = ("bid", "table", "base_vpn", "npages", "fids")

    def __init__(
        self,
        bid: int,
        table: PageTable,
        base_vpn: int,
        npages: int,
        fids: Tuple[int, ...],
    ) -> None:
        self.bid = bid
        self.table = table
        self.base_vpn = base_vpn
        self.npages = npages
        self.fids = fids

    def __repr__(self) -> str:
        return (
            f"HugeBlock(bid={self.bid}, table={self.table.name!r}, "
            f"base={self.base_vpn:#x}, npages={self.npages})"
        )


class HostPhysicalMemory:
    """The machine's physical frame pool.

    All mutation of (page table, frame) pairs goes through this class so
    that refcounts, copy-on-write, and KSM merging stay consistent.
    """

    def __init__(self, capacity_bytes: int, page_size: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.capacity_bytes = capacity_bytes
        self.page_size = page_size
        self._frames: Dict[int, Frame] = {}
        self._next_fid = 1
        self._cow_breaks = 0
        self._pool_bytes = 0
        self._mirror: Optional[FrameMirror] = None
        self._blocks: Dict[int, HugeBlock] = {}
        self._next_block_id = 1
        self._blocks_formed = 0
        self._blocks_split = 0
        self._block_splits_by_reason: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Frame-level primitives
    # ------------------------------------------------------------------

    def alloc(self, token: int) -> int:
        """Allocate a fresh frame holding ``token``; refcount starts at 1."""
        fid = self._next_fid
        self._next_fid += 1
        self._frames[fid] = Frame(token)
        if self._mirror is not None:
            self._mirror.note_alloc(fid, token)
        return fid

    def attach_frame_mirror(self) -> FrameMirror:
        """Attach (or return) the columnar :class:`FrameMirror`.

        Idempotent: the first call backfills from the live frame table,
        later calls return the same mirror.  Once attached, every frame
        mutation keeps it coherent.
        """
        if self._mirror is None:
            self._mirror = FrameMirror(self._next_fid, self._frames)
        return self._mirror

    def frame(self, fid: int) -> Optional[Frame]:
        """The frame for ``fid``, or None if it has been freed."""
        return self._frames.get(fid)

    def get_frame(self, fid: int) -> Frame:
        """The frame for ``fid``; raises if it has been freed."""
        try:
            return self._frames[fid]
        except KeyError:
            raise KeyError(f"frame {fid} has been freed") from None

    def frames_snapshot(self, fids) -> Dict[int, Tuple[int, int]]:
        """Bulk metadata read: ``fid -> (token, refcount)``.

        Freed fids are skipped, duplicates collapse; one call replaces a
        per-entry :meth:`frame` probe loop when dump collection snapshots
        a whole page table's frames (the struct-page array read of the
        paper's crash dump, taken in one pass).
        """
        frames = self._frames
        snapshot: Dict[int, Tuple[int, int]] = {}
        for fid in fids:
            if fid not in snapshot:
                frame = frames.get(fid)
                if frame is not None:
                    snapshot[fid] = (frame.token, frame.refcount)
        return snapshot

    def inc_ref(self, fid: int) -> None:
        self.get_frame(fid).refcount += 1
        if self._mirror is not None:
            self._mirror.refs[fid] += 1

    def dec_ref(self, fid: int) -> None:
        """Drop one reference; the frame is freed when none remain."""
        frame = self.get_frame(fid)
        frame.refcount -= 1
        if frame.refcount < 0:
            raise AssertionError(f"negative refcount on frame {fid}")
        if frame.refcount == 0:
            if frame.block:
                # Freeing a subpage tears the huge mapping apart first
                # (split_huge_pmd semantics) so no block ever holds a
                # dead frame.
                self.split_block(frame.block, "free")
            del self._frames[fid]
            if self._mirror is not None:
                self._mirror.note_free(fid)
        elif self._mirror is not None:
            self._mirror.refs[fid] -= 1

    def mark_ksm_stable(self, fid: int) -> None:
        """Flag ``fid`` as a write-protected KSM-stable frame.

        All stable-bit promotion goes through here (never through direct
        ``frame.ksm_stable`` stores) so the frame mirror cannot drift.
        Raises while the frame sits inside an intact huge block — the
        scanner must request a split first (split-on-KSM-merge).
        """
        frame = self.get_frame(fid)
        if frame.block:
            raise ValueError(
                f"frame {fid} is inside intact huge block {frame.block}; "
                "split it before KSM promotion"
            )
        frame.ksm_stable = True
        if self._mirror is not None:
            self._mirror.note_stable(fid)

    # ------------------------------------------------------------------
    # Huge (THP-style) frame blocks
    # ------------------------------------------------------------------

    def form_block(
        self, table: PageTable, base_vpn: int, npages: int
    ) -> Optional[int]:
        """Group ``npages`` consecutively mapped vpns into a huge block.

        Models a khugepaged collapse (or a huge fault on first touch):
        the run becomes one PMD-level mapping.  Eligibility mirrors the
        kernel's: every vpn in ``[base_vpn, base_vpn + npages)`` must be
        mapped, and every backing frame must be exclusive (refcount 1),
        not KSM-stable, and not already part of a block.  Returns the
        new block id, or ``None`` when the range is ineligible (never
        raises — callers probe candidate ranges optimistically).
        """
        if npages <= 0:
            raise ValueError("block must span at least one page")
        fids = []
        for vpn in range(base_vpn, base_vpn + npages):
            fid = table.translate(vpn)
            if fid is None:
                return None
            frame = self._frames.get(fid)
            if (
                frame is None
                or frame.refcount != 1
                or frame.ksm_stable
                or frame.block
            ):
                return None
            fids.append(fid)
        bid = self._next_block_id
        self._next_block_id += 1
        block = HugeBlock(bid, table, base_vpn, npages, tuple(fids))
        self._blocks[bid] = block
        for fid in fids:
            self._frames[fid].block = bid
        self._blocks_formed += 1
        return bid

    def split_block(self, bid: int, reason: str = "explicit") -> bool:
        """Dissolve huge block ``bid`` back into 4 KiB mappings.

        Idempotent: splitting an already-split (or never-formed) block
        id returns False and counts nothing.  Content is untouched —
        member frames keep their tokens, so KSM sees exactly the pages
        it would have seen had the block never existed.
        """
        block = self._blocks.pop(bid, None)
        if block is None:
            return False
        for fid in block.fids:
            frame = self._frames.get(fid)
            if frame is not None and frame.block == bid:
                frame.block = 0
        self._blocks_split += 1
        self._block_splits_by_reason[reason] = (
            self._block_splits_by_reason.get(reason, 0) + 1
        )
        return True

    def split_block_of(self, fid: int, reason: str = "explicit") -> bool:
        """Split whatever intact block contains ``fid`` (if any)."""
        frame = self._frames.get(fid)
        if frame is None or not frame.block:
            return False
        return self.split_block(frame.block, reason)

    def block_intact(self, bid: int) -> bool:
        """True while block ``bid`` has not been split."""
        return bid in self._blocks

    def iter_blocks(self):
        """All intact blocks, in formation order (ids are monotonic)."""
        for bid in sorted(self._blocks):
            yield self._blocks[bid]

    @property
    def blocks_intact(self) -> int:
        return len(self._blocks)

    @property
    def blocks_formed(self) -> int:
        """Blocks ever formed (collapse events) since boot."""
        return self._blocks_formed

    @property
    def blocks_split(self) -> int:
        """Blocks ever split since boot (any reason)."""
        return self._blocks_split

    @property
    def block_splits_by_reason(self) -> Dict[str, int]:
        return dict(self._block_splits_by_reason)

    @property
    def huge_backed_pages(self) -> int:
        """4 KiB pages currently backed by intact huge blocks."""
        return sum(block.npages for block in self._blocks.values())

    # ------------------------------------------------------------------
    # Page-table-level operations (the only way mappings change)
    # ------------------------------------------------------------------

    def map_token(self, table: PageTable, vpn: int, token: int) -> int:
        """Back ``vpn`` with a fresh frame holding ``token``."""
        fid = self.alloc(token)
        table.map(vpn, fid)
        return fid

    def read_token(self, table: PageTable, vpn: int) -> Optional[int]:
        """Content token visible at ``vpn``, or None when unmapped."""
        fid = table.translate(vpn)
        if fid is None:
            return None
        return self.get_frame(fid).token

    def write_token(self, table: PageTable, vpn: int, token: int) -> int:
        """Write ``token`` at ``vpn``, breaking copy-on-write as needed.

        Returns the frame id now backing the page.  A write to a shared or
        KSM-stable frame allocates a private copy (the COW break KSM relies
        on); a write to an exclusively owned, non-stable frame mutates the
        frame in place.

        Both paths log the vpn into the table's dirty log — the in-place
        store plays the role of a PML write notification, the COW break
        that of the write-protect fault on a merged frame.
        """
        fid = table.translate(vpn)
        if fid is None:
            return self.map_token(table, vpn, token)
        frame = self.get_frame(fid)
        if frame.refcount == 1 and not frame.ksm_stable:
            frame.token = token
            if self._mirror is not None:
                self._mirror.note_token(fid, token)
            table.log_dirty(vpn)
            return fid
        self._cow_breaks += 1
        self.dec_ref(fid)
        new_fid = self.alloc(token)
        table.remap(vpn, new_fid)
        table.log_dirty(vpn)
        return new_fid

    def unmap(self, table: PageTable, vpn: int) -> None:
        """Remove the mapping at ``vpn`` and drop its frame reference."""
        fid = table.unmap(vpn)
        self.dec_ref(fid)

    def share_mapping(self, table: PageTable, vpn: int, fid: int) -> None:
        """Map ``vpn`` to an existing frame (e.g. a fork or a KSM merge)."""
        frame = self.get_frame(fid)
        if frame.block:
            raise ValueError(
                f"frame {fid} is inside intact huge block {frame.block}; "
                "split it before sharing"
            )
        self.inc_ref(fid)
        table.map(vpn, fid)

    def merge_into(self, table: PageTable, vpn: int, target_fid: int) -> int:
        """Re-point ``vpn`` from its current frame to ``target_fid``.

        Used by the KSM scanner after verifying content equality.  Returns
        the frame id the page previously used.  Raises if the contents
        differ — merging unequal pages would corrupt guest memory.

        Deliberately does *not* log the vpn dirty: a merge re-points the
        mapping without changing the visible content, so the scanner's
        own work must not re-enter its dirty-log worklist.
        """
        old_fid = table.translate(vpn)
        if old_fid is None:
            raise KeyError(f"{table.name}: vpn {vpn:#x} is not mapped")
        if old_fid == target_fid:
            return old_fid
        old = self.get_frame(old_fid)
        target = self.get_frame(target_fid)
        if old.token != target.token:
            raise ValueError(
                "refusing to merge pages with different contents "
                f"({old.token:#x} != {target.token:#x})"
            )
        if old.block or target.block:
            raise ValueError(
                f"refusing to merge through an intact huge block "
                f"(frame {old_fid} block={old.block}, "
                f"frame {target_fid} block={target.block}); split first"
            )
        target.refcount += 1
        if self._mirror is not None:
            self._mirror.refs[target_fid] += 1
        table.remap(vpn, target_fid)
        self.dec_ref(old_fid)
        return old_fid

    def merge_many(
        self, table: PageTable, pairs: Iterable[Tuple[int, int]]
    ) -> int:
        """Apply ``(vpn, target_fid)`` merges in order; returns the count.

        The KSM scanner's bulk mutation API: one call per elected
        token group instead of one :meth:`merge_into` round-trip per
        page.  Semantics are identical to applying :meth:`merge_into`
        sequentially (including the no-dirty-log rule).
        """
        merge = self.merge_into
        applied = 0
        for vpn, target_fid in pairs:
            merge(table, vpn, target_fid)
            applied += 1
        return applied

    # ------------------------------------------------------------------
    # Side pools (compressed RAM stores)
    # ------------------------------------------------------------------

    def charge_pool_bytes(self, num_bytes: int) -> None:
        """Charge ``num_bytes`` of non-frame storage to the host.

        Compressed-RAM pools live in host physical memory too; without
        this charge, compressing a page would make its memory vanish from
        the host's books entirely and overstate the savings.
        """
        if num_bytes < 0:
            raise ValueError("pool charge must be non-negative")
        self._pool_bytes += num_bytes

    def release_pool_bytes(self, num_bytes: int) -> None:
        """Return previously charged pool bytes (e.g. on decompression)."""
        if num_bytes < 0:
            raise ValueError("pool release must be non-negative")
        if num_bytes > self._pool_bytes:
            raise AssertionError(
                f"releasing {num_bytes} pool bytes but only "
                f"{self._pool_bytes} are charged"
            )
        self._pool_bytes -= num_bytes

    @property
    def pool_bytes(self) -> int:
        """Bytes currently charged by side pools (compressed stores)."""
        return self._pool_bytes

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def frames_in_use(self) -> int:
        return len(self._frames)

    @property
    def bytes_in_use(self) -> int:
        return len(self._frames) * self.page_size + self._pool_bytes

    @property
    def bytes_free(self) -> int:
        """May be negative when the host is over-committed."""
        return self.capacity_bytes - self.bytes_in_use

    @property
    def overcommitted_bytes(self) -> int:
        """Bytes by which usage exceeds capacity (0 when it fits)."""
        return max(0, self.bytes_in_use - self.capacity_bytes)

    @property
    def cow_breaks(self) -> int:
        """Number of copy-on-write breaks since boot."""
        return self._cow_breaks

    def count_zero_frames(self) -> int:
        """Frames currently holding all-zero content (diagnostic)."""
        return sum(
            1 for frame in self._frames.values() if frame.token == ZERO_TOKEN
        )

    def __repr__(self) -> str:
        return (
            f"HostPhysicalMemory(in_use={self.bytes_in_use >> 20} MiB, "
            f"capacity={self.capacity_bytes >> 20} MiB)"
        )
