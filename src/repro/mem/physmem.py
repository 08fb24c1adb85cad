"""Host physical memory: a columnar frame table with copy-on-write semantics.

Frames are identified by monotonically increasing ids (never reused, so a
stale frame id held by the KSM stable tree can always be detected).  The
frame table is four fid-indexed columns, and they are the only record of
a frame:

* ``tokens`` — the content token per fid in an ``array('Q')``, so the
  KSM scanner and dump collection read it zero-copy as a numpy
  ``uint64`` column;
* ``states`` — a ``bytearray`` of :data:`FREE`, :data:`ACTIVE` or
  :data:`STABLE`.  A STABLE frame is a merged, write-protected KSM
  frame: any write to one triggers a copy-on-write break, even when only
  a single mapper remains;
* ``refs`` — the mapping refcount per fid in an ``array('q')``;
* ``stamps`` — when the frame last changed, in an ``array('q')`` (below).

A token is an unsigned 64-bit value: every producer (``mix64``, the
layout-slice sums modulo 2**64, ``ZERO_TOKEN``) makes one.
:meth:`~HostPhysicalMemory.alloc`, :meth:`~HostPhysicalMemory.alloc_many`,
:meth:`~HostPhysicalMemory.write_token` and
:meth:`~HostPhysicalMemory.write_tokens` refuse a token outside
``[0, 2**64)`` with ``ValueError``, before any frame changes.

Slot 0 is a permanent FREE pad, so fids start at 1 and the scanner can
clamp a missing translation to index 0 instead of branch-filtering it.
``alloc`` appends one slot to each column; freeing a frame only sets its
state to FREE and its refcount to 0.  Readers index the columns or use
:meth:`HostPhysicalMemory.token_of`, :meth:`~HostPhysicalMemory.is_live`
and :meth:`~HostPhysicalMemory.block_of`; only the methods of
:class:`HostPhysicalMemory` write them, and each refuses a fid that is
not a live frame with ``KeyError``.

Every change to a live frame's token, state or refcount (an
in-place store, a KSM promotion, a mapping added or dropped, a free)
advances :attr:`HostPhysicalMemory.stamp_clock` by one and stamps the
frame with it; a new frame is stamped with the clock as it stands.  A
reader that noted the clock when it last looked at a frame knows the
frame is unchanged while its stamp is not above that note.  Because a
remap away from a frame drops one of its references, the frame a page
*used* to map shows the remap too: the KSM scanner checks a whole
worklist segment against the frames it recorded with one vectorized
compare, never with the dirty log and without re-translating it.

Huge-block membership is a sparse ``fid -> block id`` dict, not a fifth
column: only the THP policies form blocks, and a column would cost 8 B
for every frame ever allocated on the default path too.

The frame table also tracks *capacity*: the hypervisor host in the paper has
6 GB of RAM and the consolidation experiments (Figs. 7–8) depend on what
happens when the working set exceeds it.  Exceeding capacity is allowed
(the host starts paging); the byte balance is exposed so the paging model
in :mod:`repro.perf` can compute the penalty.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.mem.address_space import SMALL_CALL, PageTable, int64_column

#: Frame states held in :attr:`HostPhysicalMemory.states`.
FREE = 0
ACTIVE = 1
STABLE = 2

#: Row kinds of :meth:`HostPhysicalMemory.write_tokens`.
_OTHER, _IN_PLACE, _UNMAPPED = 0, 1, 2


def _check_token(token: int) -> None:
    if not 0 <= token < 1 << 64:
        raise ValueError(f"token {token} is outside [0, 2**64)")


def _token_column(tokens) -> np.ndarray:
    """``tokens`` (ints or an integer numpy array) as a ``uint64``
    column; ``ValueError`` when one lies outside ``[0, 2**64)``."""
    if isinstance(tokens, np.ndarray) and tokens.dtype.kind in "iu":
        if tokens.dtype.kind == "i" and tokens.size and tokens.min() < 0:
            raise ValueError("a token is outside [0, 2**64)")
        return tokens.astype(np.uint64, copy=False)
    try:
        return np.array(tokens, dtype=np.uint64)
    except OverflowError:
        raise ValueError("a token is outside [0, 2**64)") from None


def stores_in_place(state, refs):
    """Whether a write to a frame of ``state`` with ``refs`` mappings
    stores in place (an exclusively owned ACTIVE frame) rather than
    breaking copy-on-write; elementwise over numpy columns."""
    return (state == ACTIVE) & (refs == 1)


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
        # The frame table; slot 0 is the permanent FREE pad.
        self.tokens = array("Q", [0])
        self.states = bytearray(1)
        self.refs = array("q", [0])
        self.stamps = array("q", [0])
        self._in_use = 0
        self._cow_breaks = 0
        self._stamp_clock = 0
        self._pool_bytes = 0
        self._block_of: Dict[int, int] = {}
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
        _check_token(token)
        fid = len(self.states)
        self.tokens.append(token)
        self.states.append(ACTIVE)
        self.refs.append(1)
        self.stamps.append(self._stamp_clock)
        self._in_use += 1
        return fid

    def alloc_many(self, tokens: Sequence[int]) -> range:
        """Bulk :meth:`alloc`: one fresh frame per token, in order;
        returns the new fids, which are consecutive."""
        column = _token_column(tokens)
        first = len(self.states)
        count = len(column)
        self.tokens.frombytes(column.tobytes())
        self.states.extend(bytes((ACTIVE,)) * count)
        self.refs.extend(array("q", (1,)) * count)
        self.stamps.extend(array("q", (self._stamp_clock,)) * count)
        self._in_use += count
        return range(first, first + count)

    def _live_state(self, fid: int) -> int:
        """The state of frame ``fid``; raises KeyError unless it is live."""
        states = self.states
        if 0 < fid < len(states):
            state = states[fid]
            if state:
                return state
            raise KeyError(f"frame {fid} has been freed")
        raise KeyError(f"frame {fid} was never allocated")

    def is_live(self, fid: int) -> bool:
        """True when ``fid`` names an allocated, not yet freed frame."""
        return 0 < fid < len(self.states) and self.states[fid] != FREE

    def token_of(self, fid: int) -> int:
        """The content token of live frame ``fid``."""
        self._live_state(fid)
        return self.tokens[fid]

    def block_of(self, fid: int) -> int:
        """Id of the intact huge block holding ``fid`` (0 = none)."""
        return self._block_of.get(fid, 0)

    def _stamp(self, fid: int) -> None:
        """Date a change to frame ``fid``."""
        self._stamp_clock += 1
        self.stamps[fid] = self._stamp_clock

    def inc_ref(self, fid: int) -> None:
        self._live_state(fid)
        self.refs[fid] += 1
        self._stamp(fid)

    def dec_ref(self, fid: int) -> None:
        """Drop one reference; the frame is freed when none remain."""
        self._live_state(fid)
        left = self.refs[fid] - 1
        if left < 0:
            raise AssertionError(f"negative refcount on frame {fid}")
        if left == 0:
            bid = self._block_of.get(fid)
            if bid:
                # Freeing a subpage tears the huge mapping apart first
                # (split_huge_pmd semantics) so no block ever holds a
                # dead frame.
                self.split_block(bid, "free")
            self.states[fid] = FREE
            self._in_use -= 1
        self.refs[fid] = left
        self._stamp(fid)

    def mark_ksm_stable(self, fid: int) -> None:
        """Flag ``fid`` as a write-protected KSM-stable frame.

        All stable-bit promotion goes through here.  Raises while the
        frame sits inside an intact huge block — the scanner must
        request a split first (split-on-KSM-merge).
        """
        self._live_state(fid)
        bid = self._block_of.get(fid)
        if bid:
            raise ValueError(
                f"frame {fid} is inside intact huge block {bid}; "
                "split it before KSM promotion"
            )
        self.states[fid] = STABLE
        self._stamp(fid)

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
        block_of = self._block_of
        fids = []
        for vpn in range(base_vpn, base_vpn + npages):
            fid = table.translate(vpn)
            if (
                fid is None
                or not self.is_live(fid)
                or self.states[fid] == STABLE
                or self.refs[fid] != 1
                or fid in block_of
            ):
                return None
            fids.append(fid)
        bid = self._next_block_id
        self._next_block_id += 1
        block = HugeBlock(bid, table, base_vpn, npages, tuple(fids))
        self._blocks[bid] = block
        for fid in fids:
            block_of[fid] = bid
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
        block_of = self._block_of
        for fid in block.fids:
            if block_of.get(fid) == bid:
                del block_of[fid]
        self._blocks_split += 1
        self._block_splits_by_reason[reason] = (
            self._block_splits_by_reason.get(reason, 0) + 1
        )
        return True

    def split_block_of(self, fid: int, reason: str = "explicit") -> bool:
        """Split whatever intact block contains ``fid`` (if any)."""
        bid = self._block_of.get(fid)
        if not bid:
            return False
        return self.split_block(bid, reason)

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
        return self.token_of(fid)

    def write_token(self, table: PageTable, vpn: int, token: int) -> int:
        """Write ``token`` at ``vpn``, breaking copy-on-write as needed.

        Returns the frame id now backing the page.  A write to a shared or
        KSM-stable frame allocates a private copy (the COW break KSM relies
        on); a write to an exclusively owned, non-stable frame mutates the
        frame in place (:func:`stores_in_place`).

        Both paths log the vpn into the table's dirty log — the in-place
        store plays the role of a PML write notification, the COW break
        that of the write-protect fault on a merged frame.
        """
        _check_token(token)
        fid = table.translate(vpn)
        if fid is None:
            return self.map_token(table, vpn, token)
        if stores_in_place(self._live_state(fid), self.refs[fid]):
            self.tokens[fid] = token
            self._stamp(fid)
            table.log_dirty(vpn)
            return fid
        self._cow_breaks += 1
        self.dec_ref(fid)
        new_fid = self.alloc(token)
        table.remap(vpn, new_fid)
        table.log_dirty(vpn)
        return new_fid

    def write_tokens(self, table: PageTable, vpns, tokens) -> None:
        """Bulk :meth:`write_token`: row ``i`` writes ``tokens[i]`` at
        ``vpns[i]``.

        The rows apply in order and leave exactly the state one
        :meth:`write_token` per row would: the same fids, refcounts and
        states and stamps, the same dirty log and sink stream, and the
        same ``stamp_clock``, ``cow_breaks``, ``version`` and
        ``remap_epoch``.  ``vpns`` and ``tokens`` may be numpy arrays;
        all tokens are checked before any row lands.  A call of at most
        :data:`~repro.mem.address_space.SMALL_CALL` rows goes row by row.

        The range is translated once, and one vectorized pass sorts the
        rows.  A run of unmapped rows gets fresh frames through one
        :meth:`alloc_many` and one :meth:`PageTable.map_many`; a run of
        rows whose frame :func:`stores_in_place` takes one scatter into
        ``tokens``, the stamps ``clock+1 … clock+n`` in row order and one
        :meth:`PageTable.log_dirty_many`; any other row goes through
        :meth:`write_token`, the one home of the copy-on-write break.
        The pass can go stale only towards :meth:`write_token`: an
        in-place frame has one mapping, its row's vpn, which no other
        row names (a call naming a vpn twice goes row by row), and a
        copy-on-write break that leaves a later row's shared frame with
        one mapping is for that row's :meth:`write_token` to find.
        """
        column = _token_column(tokens)
        vpns = int64_column(vpns)
        if len(vpns) != len(column):
            raise ValueError(f"{len(vpns)} vpns but {len(column)} tokens")
        if len(vpns) <= SMALL_CALL:
            for vpn, token in zip(vpns.tolist(), column.tolist()):
                self.write_token(table, vpn, token)
            return
        # Unmapped rows read frame 0, the FREE pad.
        fids = table.translate_many(vpns, 0)
        states = np.frombuffer(self.states, np.uint8)
        refs = np.frombuffer(self.refs, np.int64)
        kinds = stores_in_place(states[fids], refs[fids]).astype(np.int8)
        del states, refs
        kinds[fids == 0] = _UNMAPPED
        ascending = (vpns[1:] > vpns[:-1]).all()
        if not ascending and len(set(vpns.tolist())) != len(vpns):
            kinds[:] = _OTHER
        cuts = (np.flatnonzero(kinds[1:] != kinds[:-1]) + 1).tolist()
        for start, stop in zip([0, *cuts], cuts + [len(vpns)]):
            kind = kinds[start]
            if kind == _UNMAPPED:
                table.map_many(
                    vpns[start:stop], self.alloc_many(column[start:stop])
                )
            elif kind == _IN_PLACE:
                self._store_in_place(fids[start:stop], column[start:stop])
                table.log_dirty_many(vpns[start:stop])
            else:
                for vpn, token in zip(
                    vpns[start:stop].tolist(), column[start:stop].tolist()
                ):
                    self.write_token(table, vpn, token)

    def _store_in_place(self, fids: np.ndarray, column: np.ndarray) -> None:
        """Store ``column`` into the distinct in-place frames ``fids``,
        stamping them in row order."""
        clock = self._stamp_clock
        np.frombuffer(self.tokens, np.uint64)[fids] = column
        np.frombuffer(self.stamps, np.int64)[fids] = np.arange(
            clock + 1, clock + 1 + len(fids)
        )
        self._stamp_clock = clock + len(fids)

    def unmap(self, table: PageTable, vpn: int) -> None:
        """Remove the mapping at ``vpn`` and drop its frame reference."""
        fid = table.unmap(vpn)
        self.dec_ref(fid)

    def share_mapping(self, table: PageTable, vpn: int, fid: int) -> None:
        """Map ``vpn`` to an existing frame (e.g. a fork or a KSM merge)."""
        bid = self._block_of.get(fid)
        if bid:
            raise ValueError(
                f"frame {fid} is inside intact huge block {bid}; "
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
        old_token = self.token_of(old_fid)
        target_token = self.token_of(target_fid)
        if old_token != target_token:
            raise ValueError(
                "refusing to merge pages with different contents "
                f"({old_token:#x} != {target_token:#x})"
            )
        block_of = self._block_of
        if old_fid in block_of or target_fid in block_of:
            raise ValueError(
                f"refusing to merge through an intact huge block "
                f"(frame {old_fid} block={self.block_of(old_fid)}, "
                f"frame {target_fid} block={self.block_of(target_fid)}); "
                "split first"
            )
        self.refs[target_fid] += 1
        self._stamp(target_fid)
        table.remap(vpn, target_fid)
        self.dec_ref(old_fid)
        return old_fid

    def merge_many(self, table: PageTable, vpns, targets) -> None:
        """Bulk :meth:`merge_into` in row order, stamps included.  A batch
        with an unmapped vpn, a frame named twice, dead or in an intact
        huge block, or unequal tokens goes row by row through
        :meth:`merge_into`, which keeps every refusal."""
        vpns, targets = int64_column(vpns), int64_column(targets)
        if len(vpns) != len(targets):
            raise ValueError(f"{len(vpns)} vpns but {len(targets)} targets")
        olds = table.translate_many(vpns)
        frames = np.concatenate((olds, targets))
        named = np.sort(frames)
        states = np.frombuffer(self.states, np.uint8)
        refs = np.frombuffer(self.refs, np.int64)
        tokens = np.frombuffer(self.tokens, np.uint64)
        block_of = self._block_of
        if not (
            (named[:1] > 0).all()
            and (named[-1:] < len(states)).all()
            and (named[1:] != named[:-1]).all()
            and (states[frames] != FREE).all()
            and (refs[olds] > 0).all()
            and (tokens[olds] == tokens[targets]).all()
            and not (block_of and block_of.keys() & named.tolist())
        ):
            for vpn, target in zip(vpns.tolist(), targets.tolist()):
                self.merge_into(table, vpn, target)
            return
        # Row i stamps its target at clock + 2i + 1, its old frame next.
        clock, n = self._stamp_clock, len(vpns)
        stamps = np.frombuffer(self.stamps, np.int64)
        stamps[targets] = np.arange(clock + 1, clock + 2 * n, 2)
        stamps[olds] = np.arange(clock + 2, clock + 2 * n + 1, 2)
        self._stamp_clock = clock + 2 * n
        refs[targets] += 1
        refs[olds] -= 1
        freed = olds[refs[olds] == 0]
        states[freed] = FREE
        self._in_use -= len(freed)
        table.remap_many(vpns, targets)

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
        return self._in_use

    @property
    def bytes_in_use(self) -> int:
        return self._in_use * self.page_size + self._pool_bytes

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

    @property
    def stamp_clock(self) -> int:
        """Changes to a live frame's token, state or refcount since boot;
        the newest frame stamp.  Never decreases."""
        return self._stamp_clock

    def __repr__(self) -> str:
        return (
            f"HostPhysicalMemory(in_use={self.bytes_in_use >> 20} MiB, "
            f"capacity={self.capacity_bytes >> 20} MiB)"
        )
