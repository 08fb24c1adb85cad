"""The KSM scanner.

This is a functional model of the algorithm described by Arcangeli, Eidus
and Wright ("Increasing memory density by using KSM", Linux Symposium 2009)
and used by the paper as the KVM transparent-page-sharing engine:

* Memory regions registered as mergeable (QEMU registers every guest-memory
  range) are walked round-robin.  Each wake-up the scanner examines
  ``pages_to_scan`` pages, then sleeps ``sleep_millisecs`` — the exact two
  knobs the paper tunes (10 000/100 ms during warm-up, 1 000/100 ms during
  measurement, §II.C).

* A candidate page is first checked against the **stable tree** of already
  merged pages; on a content match it is merged copy-on-write into the
  stable frame.

* Otherwise the page must prove it is not volatile: its checksum (here, the
  content token) must be unchanged since the previous pass.  Pages that
  keep changing — the Java heap under GC — never get past this filter,
  which is one of the two mechanisms behind the paper's "TPS is ineffective
  for Java" finding (the other being layout variance).

* Stable candidates are looked up in the **unstable tree**; a hit creates
  a new stable node and merges both pages into it.  Both trees share one
  O(1) content-token index (:mod:`repro.ksm.index`).

Merged frames are write-protected: any write triggers a copy-on-write break
(handled in :class:`repro.mem.physmem.HostPhysicalMemory`), after which the
page is private again and must re-earn merging.

Scan policies
-------------

What the scanner walks each pass is governed by :class:`ScanPolicy`:

* ``FULL`` — the classic KSM round-robin over every mapped page of every
  registered table, byte-identical (stats, history, merge results) to the
  original scanner.  Per-table worklists are pre-sorted once and reused
  across passes while the table's mapping set is unchanged (a persistent
  cursor), instead of being re-``sorted()`` on every visit.  The unstable
  tree is discarded after each pass, as in the kernel.

* ``INCREMENTAL`` — dirty-log-driven, mirroring Intel PML-style hardware
  dirty tracking: only pages whose vpn appears in the table's dirty log
  (fresh maps, stores, COW breaks, unmaps) are examined, plus a
  *recheck* set holding pages that still owe the volatility filter their
  second, unchanged sighting.  Unstable-tree entries persist across
  passes (quiescent candidates wait for a partner indefinitely; the
  stale-drop path evicts rewritten ones) so that two identical pages
  dirtied in different passes still meet.

* ``HYBRID`` — incremental passes with a periodic full pass (every
  ``hybrid_full_interval``-th) to catch pages whose writes bypassed the
  log (content mutated behind the page table, torn state, etc.).

All policies converge to the same ``pages_saved`` fixpoint on quiescent
memory; the incremental policies get there examining a small fraction of
the pages (the scan-policy ablation measures the ratio).

The scanner charges simulated CPU time per page examined; the constant is
calibrated so that the paper's settings reproduce its reported scanner
overheads (≈25 % CPU at 10 000 pages/100 ms, ≈2 % at 1 000 pages/100 ms).
Dirty-log draining charges a far smaller per-entry cost (see
:mod:`repro.perf.scancost`); under ``FULL`` nothing is drained and the
charge is exactly the historical calibration.

Columnar execution
------------------

Each scan burst examines whole worklist segments with columnar kernels
instead of one page at a time, with the same merges, statistics,
scan-cost charging and convergence history as a per-page walk.

During a scan burst only the scanner mutates memory, and every mutation
it performs is *token-local*:

* a merge re-points one vpn at a frame holding the **same** token (the
  frame backing any not-yet-examined page stays alive — its own mapping
  holds a reference — and frame tokens never change mid-burst);
* the STABLE state is only ever set on frames whose token equals the
  group's token;
* the token index and volatility history are keyed by token and vpn,
  and a worklist never repeats a vpn.

Hence pages of *different* tokens cannot affect each other's
examination, and the examined-at-segment-start snapshot of
(fid, token, stable) is exact.  The scanner therefore:

1. **gathers** the segment as flat columns: a per-worklist int64 vpn
   column (under FULL, the table's own :meth:`PageTable.mapped_vpns`)
   plus its bulk translation (:meth:`PageTable.translate_many`) as an
   int64 column, cached per worklist.  Under FULL only the rows found
   stale are re-translated (see "Settled segments"); under the
   incremental policies the column is keyed by ``(version,
   remap_epoch)``.  Frame state and token columns are the host frame
   table itself (:class:`repro.mem.physmem.HostPhysicalMemory` stores
   each frame only as columns, viewed zero-copy as numpy arrays over
   their ``array('Q')``/``bytearray`` storage).  Unmapped and
   already-stable pages drop out in one vectorized mask;
2. **groups** the survivors by their ``uint64`` content token with the
   columnar :func:`~repro.core.columnar.backend.group_sizes` kernel (a
   stable argsort, so in-group order is segment order — the only order
   that matters);
3. applies **unseen singletons** — the singletons whose token has no
   node in either tree, split off by one C-level
   :meth:`TokenIndex.with_node` call — as column operations: the
   volatility filter is one compare against the history columns, and
   the unchanged rows go into the unstable tree in one bulk insert
   (under FULL, as resting candidates: below);
4. runs the **other singletons** through one column kernel: an index
   probe (:meth:`TokenIndex.lookup`) per row, then masks per node kind
   (a live stable node; an unstable partner, translated per table, and
   the volatility and partner-token checks), with the segment's merges
   in one :meth:`HostPhysicalMemory.merge_many`;
5. runs **multi-page groups**, and the singletons whose stable node is
   dead or whose partner maps their own frame, through
   :meth:`KsmScanner._examine_row`, the per-page state machine, in
   segment order.

Volatility history
------------------

The volatility filter compares a page's token with the one it showed at
its previous examination.  Each registered table keeps that history
indexed by the table's own slots (class ``_History``), which keep their
vpn for the table's life: a ``uint64`` column of last tokens and a
``bool`` column saying which entries hold one (every ``uint64``,
``ZERO_TOKEN`` included, is a real token).  Each worklist caches its
rows' slots (:meth:`PageTable.slots_of`), and steps 1–3 read and store
the history as numpy columns; the per-row paths index it one entry at
a time, and the pass-end prune is one mask (:meth:`PageTable.slot_mask`).
INCREMENTAL worklists are rebuilt every pass, so a store keyed by slot,
not by worklist row, serves all three policies.

Settled segments
----------------

Over converged memory most of a FULL pass re-proves that nothing
changed.  The modelled KSM still examines every page —
``pages_scanned``, ``cpu_ms``, the pass boundaries, ``full_scans`` and
the history sample are charged as before — but a segment whose outcome
is already known costs a fixed number of numpy calls, wherever the
burst boundaries fall:

* A row **settles** when its examination found its page already
  merged, or was a fresh, unchanged unstable insert — the page then
  **rests**: its candidate stays in the worklist's columns instead of
  the per-pass unstable dict.  A row found unmapped never settles: it
  recorded the FREE pad, which no later map of its vpn stamps.  Each
  FULL worklist keeps, beside its translation, the frame table's stamp
  clock when each row last settled (-1 while it has not), whether it
  rests, and the low 32 bits of its candidate's token, with a sorted
  token-to-row lookup over the resting rows behind a bit filter of
  their keys (class ``_Worklist``): a few bytes per row, no Python
  object.
* A row is **fresh** while the frame it recorded is unchanged since it
  settled: ``stamps[fid] <= settled``, one vectorized compare per
  segment (:class:`repro.mem.physmem.HostPhysicalMemory` stamps a frame
  on every change to its token, state or refcount).  A remap of the
  row's vpn away from that frame drops one of its references, so the
  recorded frame shows it, and a fresh row's translation is never read
  again.  The dirty log is not consulted: a full pass clears it, and
  ``clear_dirty()`` drops entries FULL must still catch.  A rebuilt
  worklist (the table's mapping set changed) keeps the rows it shares
  with the old one, with their columns.
* No token of a fresh resting row has gained a node since it settled.
  Only an examined page whose content is unchanged since its last
  examination gives a token a node or reads an unstable one (a changed
  page is skipped as volatile, or merges into a stable node, and no
  resting candidate shares a token with a stable node).  Before such a
  page's token is probed, the scanner takes out the resting candidate
  holding it (:meth:`KsmScanner._settle`): one already renewed in this
  pass becomes an ordinary unstable node (:meth:`TokenIndex.adopt`),
  one not yet renewed is dropped.  Either way its row stops resting;
  when it lies in the segment being examined, it is examined with it,
  in segment order.  Each worklist's bit filter first drops the keys
  none of its resting rows holds, so its lookup costs in its hits.
* So a fresh row's examination would repeat its last one: a merged
  page is skipped again, and a resting page (same token, unchanged
  history entry, no node) would be inserted again.  A segment's
  fresh rows are therefore **renewed**, not examined:
  :meth:`TokenIndex.renew` moves the table's renewal mark past the
  segment and counts its resting rows into the tree, so their
  candidates are visible to the pages examined after them in this
  pass, exactly where re-inserted ones would be, and the pass end's
  :meth:`TokenIndex.clear_unstable` is a generation bump for them.
* The segment's stale rows are examined as above, after giving up their
  own resting candidates.  Token groups are independent, and a fresh
  row sharing a token with an unchanged stale one joins the examined
  set (next to a changed one it makes no difference), so examining the
  stale rows apart from the fresh ones changes nothing.
* Only passes begun under FULL settle rows.  When such a pass ends under
  another policy (the policy changed mid-pass), its renewed candidates
  become ordinary unstable nodes, which those policies keep across
  passes, and every row is stale again.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, replace
from itertools import compress
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.columnar.backend import group_sizes
from repro.ksm.index import STABLE, TokenIndex
from repro.ksm.stats import KsmStats
from repro.mem.address_space import PageTable
from repro.mem.physmem import (
    ACTIVE as FRAME_ACTIVE,
    STABLE as FRAME_STABLE,
    HostPhysicalMemory,
)
from repro.perf.scancost import (
    DEFAULT_COST_US_PER_PAGE,
    DEFAULT_DIRTY_LOG_COST_US,
    scan_cost_ms,
)
from repro.sim.clock import SimClock

#: Row = (vpn, fid, token, table slot); multi-page groups carry
#: them in segment order.
Row = Tuple[int, int, int, int]


class ScanPolicy(enum.Enum):
    """How the scanner chooses which pages to examine each pass."""

    #: Round-robin over every mapped page (the classic KSM behaviour).
    FULL = "full"
    #: Only pages reported by the per-table dirty logs (PML-style).
    INCREMENTAL = "incremental"
    #: Incremental, with a periodic full pass as a safety net.
    HYBRID = "hybrid"


@dataclass
class KsmConfig:
    """Tuning knobs, mirroring ``/sys/kernel/mm/ksm``."""

    pages_to_scan: int = 1000
    sleep_millisecs: int = 100
    cost_us_per_page: float = DEFAULT_COST_US_PER_PAGE
    #: Which pages each pass examines; accepts a ScanPolicy or its value
    #: string ("full", "incremental", "hybrid").
    scan_policy: ScanPolicy = ScanPolicy.FULL
    #: Simulated cost of consuming one dirty-log entry (µs).
    dirty_log_cost_us: float = DEFAULT_DIRTY_LOG_COST_US
    #: Under HYBRID, every Nth pass is a full pass (1 = always full).
    hybrid_full_interval: int = 8

    def __post_init__(self) -> None:
        if self.pages_to_scan <= 0:
            raise ValueError("pages_to_scan must be positive")
        if self.sleep_millisecs <= 0:
            raise ValueError("sleep_millisecs must be positive")
        if not isinstance(self.scan_policy, ScanPolicy):
            self.scan_policy = ScanPolicy(self.scan_policy)
        if self.dirty_log_cost_us < 0:
            raise ValueError("dirty_log_cost_us must be non-negative")
        if self.hybrid_full_interval < 1:
            raise ValueError("hybrid_full_interval must be >= 1")


#: A resting candidate is looked up by the low 32 bits of its token.
_KEY_MASK = np.uint64(0xFFFFFFFF)
#: A lookup level holds one uint64 entry ``(key << 32) | row`` per row.
_ROW_BITS = np.uint64(32)
_NO_ENTRIES = np.empty(0, np.uint64)
#: Entries of the ``latest`` level beyond which it merges into ``recent``.
_LATEST_ENTRIES = 1 << 13
#: The multiplier of a key's second filter bit (``_Worklist.may_hold``).
_FILTER_HASH = np.uint64(0x9E3779B97F4A7C15)


def _entries(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Unsorted level entries of ``rows`` with keys ``keys``."""
    return (keys.astype(np.uint64) << _ROW_BITS) | rows.astype(np.uint64)


def _sorted(*parts: np.ndarray) -> np.ndarray:
    """The entries of ``parts`` as one sorted level."""
    return np.sort(np.concatenate(parts))


def _lookup(level: np.ndarray, low: np.ndarray) -> List[int]:
    """The rows of sorted ``level`` whose key is among the sorted keys
    ``low >> 32`` (``low``: the keys' lowest entries, ``key << 32``)."""
    if not len(level):
        return []
    lo = np.searchsorted(level, low)
    # level[lo] is the first entry at or above low: of the key if below
    # the next key's lowest entry (a clamped miss wraps around).
    hit = level[np.minimum(lo, len(level) - 1)] - low <= _KEY_MASK
    if not hit.any():
        return []
    lo = lo[hit]
    count = np.searchsorted(level, low[hit] | _KEY_MASK, "right") - lo
    first = np.repeat(lo - np.cumsum(count) + count, count)
    found = level[np.arange(int(count.sum())) + first] & _KEY_MASK
    return found.tolist()


class _History:
    """One registered table's volatility history (module docstring):
    ``last`` (``array('Q')``) and ``seen`` (``bytearray``) hold the entry
    of the table's slot ``i`` at index ``i``."""

    __slots__ = ("last", "seen")

    def __init__(self) -> None:
        self.last = array("Q")
        self.seen = bytearray()

    def fit(self, table: PageTable) -> None:
        """Cover every slot of ``table`` (which only grows); call it
        with no :meth:`columns` view alive."""
        grow = table.slot_count - len(self.seen)
        if grow > 0:
            self.last.frombytes(bytes(8 * grow))
            self.seen.extend(bytes(grow))

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(last, seen)`` views."""
        last = np.frombuffer(self.last, np.uint64)
        return last, np.frombuffer(self.seen, np.bool_)


class _Worklist:
    """An installed worklist and its per-row columns.

    ``vpns`` is the ascending int64 vpn column (of the table at
    ``version``, for a FULL worklist), ``fids`` the translation
    column (int64, 0 for an unmapped vpn: frame slot 0 is a FREE pad)
    and ``hidx`` the rows' table slots, which index the history; the
    last two are built on first use; ``fkey`` is the
    ``(version, remap_epoch)`` at which ``fids`` was last translated whole.
    A settling pass adds ``settled`` (int64: the frame table's stamp
    clock when the row last settled, -1 while it has not), ``rests``
    (bool: the row holds a resting candidate) and ``rest_keys`` (uint32:
    the low 32 bits of the candidate's token), and finds a candidate's row
    from its key through three sorted levels of ``(key, row)`` entries:
    ``base``, the smaller ``recent``, and ``latest``, which takes the
    rows rested since (``pending``) at the next lookup and merges into
    ``recent`` once it outgrows ``_LATEST_ENTRIES``; ``recent`` in turn
    folds into ``base`` once it outgrows a quarter of it.  A row that
    stopped resting stays in them until ``base`` is rebuilt, and a key
    can be shared, so the caller confirms a hit against the exact token.
    A lookup first drops the keys with a clear bit in ``bits``, a filter
    of at most a byte per row rebuilt with ``base``: a key entering a
    level sets a bit in each half, its low bits in the first.  The module
    docstring's "Settled segments" says how the columns are used.
    """

    __slots__ = (
        "vpns", "version", "fids", "hidx", "fkey", "settled", "rests",
        "rest_keys", "base", "recent", "latest", "pending", "bits",
    )

    def __init__(self, vpns: np.ndarray, version: int = -1) -> None:
        self.vpns = vpns
        self.version = version
        self.fids: Optional[np.ndarray] = None
        self.hidx: Optional[np.ndarray] = None
        self.fkey: Optional[Tuple[int, int]] = None
        self.unsettle()

    def unsettle(self) -> None:
        """Drop the settling columns: every row is stale."""
        self.settled = self.rests = self.rest_keys = self.bits = None
        self.base = self.recent = self.latest = _NO_ENTRIES
        self.pending: List[np.ndarray] = []

    def settle_columns(self) -> None:
        """Allocate the settling columns, every row stale."""
        size = len(self.vpns)
        self.settled = np.full(size, -1, np.int64)
        self.rests = np.zeros(size, np.bool_)
        self.rest_keys = np.zeros(size, np.uint32)
        self.bits = np.zeros(1 << max(size.bit_length() - 1, 0), np.uint8)

    def rest(self, rows: np.ndarray, tokens: np.ndarray) -> None:
        """Mark ``rows`` resting, with candidates of uint64 ``tokens``."""
        keys = (tokens & _KEY_MASK).astype(np.uint32)
        self.rests[rows] = True
        self.rest_keys[rows] = keys
        self.pending.append(_entries(keys, rows))
        self._mark(keys)

    def _filter_bits(self, keys: np.ndarray):
        """The two filter bits of each key (class docstring)."""
        half = len(self.bits) << 2
        keys = keys.astype(np.uint64)
        high = keys * _FILTER_HASH >> np.uint64(65 - half.bit_length())
        return keys & np.uint64(half - 1), high + np.uint64(half)

    def _mark(self, keys: np.ndarray) -> None:
        """Set the filter bits of ``keys``."""
        for bit in self._filter_bits(keys):
            mask = np.left_shift(1, bit & 7, dtype=np.uint8)
            np.bitwise_or.at(self.bits, bit >> 3, mask)

    def may_hold(self, keys: np.ndarray) -> np.ndarray:
        """Per key, whether both its filter bits are set (class doc)."""
        low, high = self._filter_bits(keys)
        bits = self.bits
        both = bits[low >> 3] >> (low & 7) & bits[high >> 3] >> (high & 7)
        return (both & 1).astype(np.bool_)

    def holders(self, keys: np.ndarray) -> List[int]:
        """The resting rows whose candidate's key is among ``keys``
        (sorted uint64 values below 2**32)."""
        keys = keys[self.may_hold(keys)]
        if len(keys) and self.pending and self._merge_pending():
            keys = keys[self.may_hold(keys)]  # the filter was rebuilt
        if not len(keys):
            return []
        low = keys << _ROW_BITS
        found = (
            _lookup(self.base, low)
            + _lookup(self.recent, low)
            + _lookup(self.latest, low)
        )
        rests = self.rests
        # A row rested twice with one key is in two levels.
        return [row for row in dict.fromkeys(found) if rests[row]]

    def _merge_pending(self) -> bool:
        """Sort the rows rested since the last lookup into ``latest``,
        and let each level that outgrew its bound merge down; True when
        ``base`` (and the filter) was rebuilt from the columns."""
        latest = _sorted(self.latest, *self.pending)
        self.pending = []
        if len(latest) <= _LATEST_ENTRIES:
            self.latest = latest
            return False
        self.latest = _NO_ENTRIES
        recent = _sorted(self.recent, latest)
        base = self.base
        if len(recent) <= len(base) // 4 + 256:
            self.recent = recent
            return False
        self.recent = _NO_ENTRIES
        if len(base) + len(recent) <= 2 * np.count_nonzero(self.rests) + 1024:
            self.base = _sorted(base, recent)
            return False
        # Mostly rows that stopped resting: rebuild from the columns.
        rows = np.flatnonzero(self.rests)
        self.base = _sorted(_entries(self.rest_keys[rows], rows))
        self.bits[:] = 0
        self._mark(self.rest_keys[rows])
        return True

    def carry(self, old: "_Worklist", at: np.ndarray, kept: np.ndarray):
        """Take over the settling state of ``old``'s rows: row ``i`` of
        this worklist is row ``at[i]`` of ``old`` where ``kept[i]``."""
        self.settle_columns()
        from_rows = at[kept]
        self.settled[kept] = old.settled[from_rows]
        self.rests[kept] = old.rests[from_rows]
        self.rest_keys[kept] = old.rest_keys[from_rows]
        rows = np.flatnonzero(self.rests)
        self.pending = [_entries(self.rest_keys[rows], rows)]
        self._mark(self.rest_keys[rows])


class KsmScanner:
    """Scans registered page tables and merges identical pages."""

    def __init__(
        self,
        physmem: HostPhysicalMemory,
        clock: SimClock,
        config: Optional[KsmConfig] = None,
    ) -> None:
        self.physmem = physmem
        self.clock = clock
        self.config = config or KsmConfig()
        self._tables: List[PageTable] = []
        # The shared stable/unstable content-token index.
        self._index = TokenIndex()
        # Per table (by identity): the volatility history.
        self._history: Dict[PageTable, _History] = {}
        self.stats = KsmStats()
        #: One sample per completed scan pass: (sim time ms, pages_shared,
        #: pages_sharing).  Lets callers plot convergence over time.
        self.history: List[Tuple[int, int, int]] = []
        # Walk state: index into tables plus a persistent cursor into the
        # current table's worklist (ascending vpn order).
        self._table_cursor = 0
        self._scan_list: np.ndarray = np.empty(0, np.int64)
        self._scan_pos = 0
        self._started_pass = False
        # table.version at the last volatility prune (prunes are no-ops
        # while the mapping set is unchanged).
        self._pruned_version: Dict[PageTable, int] = {}
        # INCREMENTAL: pages owing the volatility filter a second look.
        self._recheck: Dict[PageTable, Set[int]] = {}
        # Cold-region hints from the tiering layer: quiescent pages whose
        # writes predate the dirty log, queued for the next incremental
        # pass (a full pass subsumes and clears them).
        self._cold_hints: Dict[PageTable, Set[int]] = {}
        # Pass bookkeeping: pages examined in the pass in progress, the
        # number of completed (non-silent) passes, and whether the pass
        # in progress walks everything or just the dirty logs.
        self._pass_examined = 0
        self._passes_done = 0
        self._current_pass_full = True
        # Idle short-circuit: once a whole wrap of the table list yields
        # no work (every worklist, dirty log, recheck and hint set
        # empty), scanning is provably a no-op until a table event
        # raises the hint again — a register, a cold hint, or any dirty
        # logging (map/unmap/store/COW) on a registered table.  Spares
        # the len(tables)+1 empty-round spin on every idle call.
        self._work_hint = True
        # Columnar worklist state: the FULL worklist of each table, with
        # its per-row columns (kept across passes while the table's
        # mapping set is unchanged), and the installed worklist.
        self._column_cache: Dict[PageTable, _Worklist] = {}
        self._cur: Optional[_Worklist] = None
        # Stable-tree fid column for the per-pass history gauges,
        # cached against the index's stable revision.
        self._stable_cache: Optional[tuple] = None
        # Whether the pass in progress settles rows (it began under
        # FULL; module docstring, "Settled segments").
        self._settling = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, table: PageTable) -> None:
        """Mark every current and future page of ``table`` as mergeable."""
        if any(existing is table for existing in self._tables):
            raise ValueError(f"table {table.name!r} is already registered")
        if any(existing.name == table.name for existing in self._tables):
            raise ValueError(
                f"a different table named {table.name!r} is already "
                "registered; KSM bookkeeping requires unique table names"
            )
        self._tables.append(table)
        self._history[table] = _History()
        # madvise(MERGEABLE) semantics: every page the table *already*
        # maps is a merge candidate from now on.  The dirty log only
        # covers writes after this point, so without seeding the recheck
        # set an INCREMENTAL scanner would never examine pre-registration
        # pages — visible as a below-FULL fixpoint when a table is
        # unregistered (dropping its pending worklist) and re-registered.
        self._recheck[table] = set(table.mapped_vpns().tolist())
        self._cold_hints[table] = set()
        table.attach_dirty_sink(self._note_table_event)
        self._work_hint = True

    def unregister(self, table: PageTable) -> None:
        """Stop scanning ``table`` (existing merges stay in place)."""
        for index, existing in enumerate(self._tables):
            if existing is table:
                del self._tables[index]
                table.detach_dirty_sink(self._note_table_event)
                self._history.pop(table, None)
                self._recheck.pop(table, None)
                self._cold_hints.pop(table, None)
                self._column_cache.pop(table, None)
                self._pruned_version.pop(table, None)
                # Unstable candidates pointing into this table must not
                # survive it: a later identical page would merge against
                # an unregistered mapping (kernel removes the mm's rmap
                # items).  Its resting candidates go too.
                self._index.drop_unstable_for(table)
                if index < self._table_cursor:
                    self._table_cursor -= 1
                elif index == self._table_cursor:
                    # The table being scanned is gone: drop its worklist
                    # and step the cursor back so the table that shifted
                    # into this slot is still visited this pass (the
                    # cursor may legitimately rest at -1; _advance_table
                    # pre-increments).  Without this, the next advance
                    # skipped the shifted table and could count a pass
                    # boundary that never happened.
                    self._scan_list = np.empty(0, np.int64)
                    self._scan_pos = 0
                    self._table_cursor -= 1
                return
        raise ValueError(f"table {table.name!r} is not registered")

    @property
    def registered_tables(self) -> Tuple[PageTable, ...]:
        return tuple(self._tables)

    def _note_table_event(self, _vpns) -> None:
        """Dirty-sink callback: some registered table has new work."""
        self._work_hint = True

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def scan_pages(self, budget: int) -> int:
        """Examine up to ``budget`` pages; returns the number examined."""
        if budget <= 0 or not self._tables:
            return 0
        if self._idle():
            # Idle: the last wrap proved every worklist source empty and
            # no table event has arrived since — O(1) instead of a
            # len(tables)+1 empty-round spin.  The spin's only lasting
            # effect in this state is cursor drift (len+2 silent
            # advances ≡ +2 mod len); replicate it so going idle stays
            # invisible to the examination order of later scans.
            if self._started_pass:
                self._table_cursor = (
                    self._table_cursor + 2
                ) % len(self._tables)
            return 0
        examined = 0
        # Guard against spinning forever when no table yields work.
        empty_rounds = 0
        while examined < budget:
            if self._scan_pos >= len(self._scan_list):
                if not self._advance_table():
                    empty_rounds += 1
                    if empty_rounds > len(self._tables) + 1:
                        # Every source of work is drained; sleep until
                        # the next dirty/register/hint event.
                        self._work_hint = False
                        break
                    continue
                empty_rounds = 0
            # Consume the installed worklist in whole remaining-budget
            # slices.
            take = min(
                budget - examined, len(self._scan_list) - self._scan_pos
            )
            start = self._scan_pos
            self._scan_pos += take
            self._examine_segment(
                self._tables[self._table_cursor], start, self._scan_pos
            )
            examined += take
            self._pass_examined += take
        self.stats.pages_scanned += examined
        return examined

    def _idle(self) -> bool:
        """Whether a scan call is provably a no-op: the last wrap found
        no work and no table event has arrived since.  A policy switch
        that changes what the next pass walks wakes the scanner: a full
        pass has work while any table maps a page."""
        if self._next_pass_full() != self._current_pass_full:
            self._work_hint = True
        return not self._work_hint and self._scan_pos >= len(self._scan_list)

    def _next_pass_full(self) -> bool:
        """Whether a pass beginning now walks every mapped page."""
        policy = self.config.scan_policy
        if policy is ScanPolicy.HYBRID:
            interval = self.config.hybrid_full_interval
            return self._passes_done % interval == 0
        return policy is ScanPolicy.FULL

    def _advance_table(self) -> bool:
        """Move to the next table's worklist; handle pass ends.

        Returns True when a non-empty worklist was installed.
        """
        if not self._started_pass:
            self._started_pass = True
            self._table_cursor = 0
            self._begin_pass()
        else:
            self._table_cursor += 1
            if self._table_cursor >= len(self._tables):
                # Wrapped around the table list.
                self._table_cursor = 0
                self._complete_pass()
                self._begin_pass()
        if self._table_cursor >= len(self._tables):
            return False
        table = self._tables[self._table_cursor]
        if self._current_pass_full:
            self._install_full_worklist(table)
        else:
            self._install_incremental_worklist(table)
        return self._scan_pos < len(self._scan_list)

    def _begin_pass(self) -> None:
        """Decide whether the pass now starting walks everything, and
        whether it settles rows."""
        self._current_pass_full = self._next_pass_full()
        self._settling = self.config.scan_policy is ScanPolicy.FULL
        if not self._settling:
            self._unsettle()

    def _complete_pass(self) -> None:
        """End-of-pass bookkeeping (only for passes that examined pages).

        A wrap of the table cursor that examined nothing — every table
        empty, or no dirty log entries under INCREMENTAL — is *silent*:
        it records no pass, no history sample, and costs no CPU, so an
        idle configuration no longer inflates ``full_scans``.
        """
        if self._pass_examined == 0:
            return
        self._pass_examined = 0
        self._passes_done += 1
        self.stats.full_scans += 1
        if self.config.scan_policy is ScanPolicy.FULL:
            # Per-pass unstable-tree discard (kernel behaviour).  The
            # incremental policies — including HYBRID's periodic full
            # passes — keep candidates alive so quiescent pages dirtied
            # in different passes can still meet.
            self._index.clear_unstable()
        elif self._settling:
            # The policy left FULL mid-pass: the candidates survive.
            self._unsettle()
        if self._current_pass_full:
            self._prune_last_tokens()
        self._record_history()

    def _unsettle(self) -> None:
        """Turn renewed resting candidates into ordinary unstable nodes,
        drop the rest, and make every row stale."""
        index = self._index
        for table, worklist in self._column_cache.items():
            if worklist.rests is None:
                continue
            last = self._history[table].last
            for row in np.flatnonzero(worklist.rests).tolist():
                vpn = int(worklist.vpns[row])
                if index.renewed(table, vpn):
                    index.adopt(last[worklist.hidx[row]], table, vpn)
            worklist.unsettle()
        index.end_renewals()

    def _install_full_worklist(self, table: PageTable) -> None:
        """Every mapped vpn, ascending — cached while the mapping set
        is unchanged, so an undisturbed table is never re-read."""
        worklist = self._column_cache.get(table)
        if worklist is None or worklist.version != table.version:
            worklist = self._carried_over(
                table, worklist, table.mapped_vpns()
            )
            self._column_cache[table] = worklist
        # A full pass subsumes whatever the dirty log holds; discard it
        # so the log stays bounded even when no incremental pass runs.
        table.clear_dirty()
        # The full walk also supersedes any pending rechecks and hints.
        self._recheck[table].clear()
        self._cold_hints[table].clear()
        self._scan_list = worklist.vpns
        self._scan_pos = 0
        self._cur = worklist

    def _carried_over(
        self, table: PageTable, old: Optional[_Worklist], vpns: np.ndarray
    ) -> _Worklist:
        """The worklist for ``vpns``, after the table's mapping set
        changed.  A row ``old`` also had keeps its recorded frame and
        its settled state: the frame's stamp still tells whether the row
        changed.  The rows ``old`` had and ``vpns`` lacks take their
        resting candidates with them (the table is not walked yet in
        this pass, so none is renewed)."""
        new = _Worklist(vpns, table.version)
        if old is None or old.settled is None or not len(old.vpns):
            return new
        at = np.minimum(np.searchsorted(old.vpns, vpns), len(old.vpns) - 1)
        kept = old.vpns[at] == vpns
        added = np.flatnonzero(~kept)
        new.fids = np.where(kept, old.fids[at], 0)
        new.fids[added] = table.translate_many(vpns[added], 0)
        new.carry(old, at, kept)
        return new

    def _install_incremental_worklist(self, table: PageTable) -> None:
        """Dirty-logged vpns plus pending rechecks, ascending.

        Draining the log also prunes bookkeeping for vpns that were
        unmapped: their volatility history is dropped and any unstable
        node still pointing at the dead mapping is retired.  The
        mapped/unmapped partition of the drained log is one bulk
        translate.
        """
        drained = np.array(table.drain_dirty(), np.int64)
        self.stats.dirty_log_drained += len(drained)
        mapped = table.translate_many(drained) >= 0
        due = set(drained[mapped].tolist())
        dead = drained[~mapped]
        if len(dead):
            history = self._history[table]
            history.fit(table)
            # A logged vpn has a leaf, so each dead vpn has a slot.
            for vpn, at in zip(dead.tolist(), table.slots_of(dead).tolist()):
                if not history.seen[at]:
                    continue
                history.seen[at] = False
                previous = history.last[at]
                node = self._index.lookup(previous)
                if (
                    node is not None
                    and node[0] != STABLE
                    and node[1] is table
                    and node[2] == vpn
                ):
                    self._index.drop(previous)
        for pending in (self._recheck[table], self._cold_hints[table]):
            due.update(vpn for vpn in pending if table.is_mapped(vpn))
            pending.clear()
        self._scan_list = np.array(sorted(due), np.int64)
        self._scan_pos = 0
        # Incremental worklists are fresh objects every pass; no reuse.
        self._cur = _Worklist(self._scan_list)

    def _prune_last_tokens(self) -> None:
        """Drop volatility history for vpns no longer mapped (full-pass
        end); the incremental path prunes via the dirty log instead."""
        for table in self._tables:
            # Entries are only recorded for mapped vpns, and the pruned
            # state was itself all-mapped, so unless the mapping *set*
            # changed since the last prune there is nothing dead.
            version = table.version
            if self._pruned_version.get(table) == version:
                continue
            self._pruned_version[table] = version
            history = self._history[table]
            history.fit(table)
            _, seen = history.columns()
            seen &= table.slot_mask()

    # ------------------------------------------------------------------
    # Stage A/B: gather + group
    # ------------------------------------------------------------------

    def _examine_segment(
        self, table: PageTable, start: int, stop: int
    ) -> None:
        cur = self._cur
        key = (table.version, table.remap_epoch)
        if cur.fids is None or (not self._settling and cur.fkey != key):
            # The whole translation column: on first use, and under the
            # incremental policies whenever a translation may have moved.
            cur.fids = table.translate_many(cur.vpns, 0)
            cur.fkey = key
        if cur.hidx is None:
            cur.hidx = table.slots_of(cur.vpns)
        self._history[table].fit(table)
        if not self._settling:
            gathered = self._gather(
                table, cur, start, stop, np.arange(start, stop)
            )
            if gathered is not None:
                self._process_groups(table, *gathered)
            return
        if cur.settled is None:
            cur.settle_columns()
        self._settle_segment(
            table, cur, start, stop, self._stale_rows(cur, start, stop)
        )

    def _stale_rows(self, cur: _Worklist, start: int, stop: int):
        """The rows of ``[start, stop)`` whose recorded frame changed
        since they last settled (or that never did), ascending."""
        stamps = np.frombuffer(self.physmem.stamps, dtype=np.int64)
        stale = stamps[cur.fids[start:stop]] > cur.settled[start:stop]
        return np.flatnonzero(stale) + start

    def _settle_segment(
        self, table: PageTable, cur: _Worklist, start: int, stop: int, stale
    ) -> None:
        """Examine the ``stale`` rows of segment ``[start, stop)`` and
        renew the others; with the examined rows that came to rest, they
        join the unstable tree."""
        if stale.size:
            gathered = self._gather(table, cur, start, stop, stale)
            if gathered is not None:
                self._process_groups(table, *gathered)
        self._index.renew(
            table,
            int(cur.vpns[stop - 1]),
            int(np.count_nonzero(cur.rests[start:stop])),
        )

    def _gather(self, table: PageTable, cur, start: int, stop: int, rows):
        """The active rows among ``rows`` (ascending positions in segment
        ``[start, stop)``), grouped by token; None when none is active.
        Returns the singletons' worklist rows, fids and tokens (segment
        order) and the multi-page groups.

        In a settling pass ``rows`` are the segment's stale rows: they are
        re-translated and give up their resting candidates, and the
        resting candidates holding their tokens are settled before
        anything probes those tokens.
        """
        physmem = self.physmem
        vpns = cur.vpns
        settling = self._settling
        if settling:
            if cur.fkey != (table.version, table.remap_epoch):
                cur.fids[rows] = table.translate_many(vpns[rows], 0)
            # The rows give their own resting candidates up.
            cur.rests[rows] = False
        fids = cur.fids[rows]
        # Slot 0 is a permanent FREE pad, so unmapped translations (0)
        # fall out of the active mask with no extra branch.
        active = np.frombuffer(physmem.states, np.uint8)[fids] == FRAME_ACTIVE
        if settling:
            # Merged rows settle now, the others once examined
            # (_insert_unseen).  An unmapped row never settles: its
            # recorded frame is the pad, which no later map stamps.
            cur.settled[rows] = np.where(
                active | (fids == 0), -1, physmem.stamp_clock
            )
        if not active.any():
            return None
        rows = rows[active]
        fids = fids[active]
        tokens = np.frombuffer(physmem.tokens, np.uint64)[fids]
        if settling:
            # Only the tokens of rows unchanged since their last
            # examination are settled (module docstring).
            last, seen = self._history[table].columns()
            at = cur.hidx[rows]
            same = seen[at] & (last[at] == tokens)
            del last, seen
            if same.any():
                extra = self._settle(table, start, stop, tokens[same])
                if extra:
                    rows = np.sort(np.concatenate((rows, extra)))
                    fids = cur.fids[rows]
                    tokens = np.frombuffer(physmem.tokens, np.uint64)[fids]
        # Reorder the rows by token (stable, so segment order within a
        # group) and split off the groups of more than one row.
        order, sizes = group_sizes(tokens)
        single = np.empty(len(rows), np.bool_)
        single[order] = sizes == 1
        multis: List[List[Row]] = []
        if not single.all():
            members = order[sizes > 1]
            picks = rows[members]
            grouped = list(zip(
                vpns[picks].tolist(),
                fids[members].tolist(),
                tokens[members].tolist(),
                cur.hidx[picks].tolist(),
            ))
            size_of = sizes[sizes > 1].tolist()
            k = 0
            while k < len(grouped):
                multis.append(grouped[k:k + size_of[k]])
                k += size_of[k]
        return rows[single], fids[single], tokens[single], multis

    def _settle(
        self, table: PageTable, start: int, stop: int, tokens: np.ndarray
    ) -> List[int]:
        """Take out the resting candidates holding any of the uint64
        ``tokens``, before those tokens are probed.

        A candidate renewed in this pass becomes an ordinary unstable
        node; one not renewed yet is dropped.  Either way its row stops
        resting.  Returns the rows of segment ``[start, stop)`` of
        ``table`` among the latter: fresh rows sharing a token with a
        stale one, to be examined with it.
        """
        index = self._index
        keys = np.sort(tokens & _KEY_MASK)
        wanted = None
        extra: List[int] = []
        for other, worklist in self._column_cache.items():
            if worklist.rests is None:
                continue
            found = worklist.holders(keys)
            if found and wanted is None:
                wanted = set(tokens.tolist())
            last = self._history[other].last
            for row in found:
                token = last[worklist.hidx[row]]
                if token not in wanted:
                    continue  # only the keys are equal
                worklist.rests[row] = False
                worklist.settled[row] = -1
                vpn = int(worklist.vpns[row])
                if index.renewed(other, vpn):
                    index.adopt(token, other, vpn)
                elif other is table and start <= row < stop:
                    extra.append(row)
        return extra

    # ------------------------------------------------------------------
    # Stage C/D: the fused singleton kernel + per-row group tails
    # ------------------------------------------------------------------

    def _process_groups(
        self, table: PageTable, rows, fids, tokens, multis: List[List[Row]]
    ) -> None:
        """Examine the gathered singletons (worklist ``rows`` with their
        ``fids`` and ``tokens``) and multi-page groups."""
        # Token groups are independent (module docstring), so group
        # processing order is free; in-group order is segment order.
        if len(rows):
            listed = tokens.tolist()
            noded = self._index.with_node(listed)
            if noded:
                self._examine_singletons(
                    table, rows, fids, tokens, listed, noded
                )
            else:
                self._insert_unseen(table, rows, tokens, listed)
        for group in multis:
            for row in group:
                self._examine_row(table, *row)

    def _insert_unseen(
        self, table: PageTable, rows, tokens, listed: List[int]
    ) -> None:
        """Singletons none of whose tokens (``listed`` as ints) has a
        node: each unchanged row becomes a fresh unstable candidate, all
        in one bulk insert, or rests in a settling pass."""
        cur = self._cur
        same = self._unchanged(table, rows, tokens)
        rows = rows[same]
        tokens = tokens[same]
        if not len(rows):
            return
        if self._settling:
            cur.settled[rows] = self.physmem.stamp_clock
            cur.rest(rows, tokens)
        else:
            self._index.bulk_set_unstable_fresh(
                compress(listed, same.tolist()), table,
                cur.vpns[rows].tolist(),
            )

    def _unchanged(self, table: PageTable, rows, tokens) -> np.ndarray:
        """Which worklist ``rows`` showed the uint64 ``tokens`` they show
        now at their last examination, storing the tokens (a worklist
        never repeats a vpn); the others are volatile skips."""
        at = self._cur.hidx[rows]
        last, seen = self._history[table].columns()
        same = seen[at] & (last[at] == tokens)
        last[at] = tokens
        seen[at] = True
        del last, seen
        if not same.all():
            self.stats.volatile_skips += len(same) - int(same.sum())
            if self.config.scan_policy is not ScanPolicy.FULL:
                vpns = self._cur.vpns[rows[~same]]
                self._recheck[table].update(vpns.tolist())
        return same

    def _examine_singletons(
        self, table: PageTable, rows, fids, tokens, listed: List[int],
        noded: Set[int],
    ) -> None:
        """The singletons' column kernel (module docstring, step 4): the
        rows whose token has no node take :meth:`_insert_unseen`, the
        others (``noded``) one probe each.  Partners are read before any
        merge lands, which token locality allows."""
        index = self._index
        physmem = self.physmem
        cur = self._cur
        has = np.fromiter(map(noded.__contains__, listed), np.bool_, len(rows))
        if not has.all():
            self._insert_unseen(
                table, rows[~has], tokens[~has],
                list(compress(listed, (~has).tolist())),
            )
            rows, fids, tokens = rows[has], fids[has], tokens[has]
        nodes = list(map(index.lookup, tokens.tolist()))
        stable = np.fromiter(map(len, nodes), np.int8, len(nodes)) == 2
        vpns = cur.vpns[rows]
        frame_tokens = np.frombuffer(physmem.tokens, np.uint64)
        # Per row: the frame it merges into (0: none; a partner's frame
        # is promoted first) and whether the row takes _examine_row.
        target = np.zeros(len(rows), np.int64)
        alone = np.zeros(len(rows), np.bool_)
        picked = np.flatnonzero(stable)
        node_fids = np.fromiter(
            map(itemgetter(1), compress(nodes, stable.tolist())),
            np.int64, len(picked),
        )
        live = (
            np.frombuffer(physmem.states, np.uint8)[node_fids] == FRAME_STABLE
        ) & (frame_tokens[node_fids] == tokens[picked])
        alone[picked[~live]] = True
        live &= node_fids != fids[picked]
        target[picked[live]] = node_fids[live]
        # Each unstable node's page, translated one table at a time.
        picked = np.flatnonzero(~stable)
        unstable = list(compress(nodes, (~stable).tolist()))
        tables = list(map(itemgetter(1), unstable))
        pvpns = np.fromiter(map(itemgetter(2), unstable), np.int64)
        code = {other: k for k, other in enumerate(dict.fromkeys(tables))}
        which = np.fromiter(map(code.__getitem__, tables), np.intp)
        partners = np.empty(len(picked), np.int64)
        for other, k in code.items():
            partners[which == k] = other.translate_many(pvpns[which == k])
        own = partners == fids[picked]
        alone[picked[own]] = True
        picked, partners = picked[~own], partners[~own]
        same = self._unchanged(table, rows[picked], tokens[picked])
        picked, partners = picked[same], partners[same]
        # An unmapped partner (-1) reads the last frame's token: masked.
        moved = (partners < 0) | (frame_tokens[partners] != tokens[picked])
        del frame_tokens
        stale = picked[moved]
        for token, vpn in zip(tokens[stale].tolist(), vpns[stale].tolist()):
            index.set_unstable(token, table, vpn)
        self.stats.stale_drops += len(stale)
        target[picked[~moved]] = partners[~moved]
        merged = np.flatnonzero(target)
        promote = (target > 0) & ~stable
        if physmem.blocks_intact:
            # Split-on-KSM-merge: a promoted partner's block, then the
            # row's own (frame 0 is in none).
            frames = np.stack((np.where(promote, target, 0), fids), 1)
            for frame in frames[merged].ravel().tolist():
                self._split_for_merge(frame)
        promoted = zip(tokens[promote].tolist(), target[promote].tolist())
        for token, fid in promoted:
            physmem.mark_ksm_stable(fid)
            index.set_stable(token, fid)
        for i in np.flatnonzero(alone).tolist():
            vpn, fid, token = int(vpns[i]), int(fids[i]), int(tokens[i])
            if stable[i]:  # a dead stable node: the re-probe misses
                index.drop(token)
            self._examine_row(table, vpn, fid, token, int(cur.hidx[rows[i]]))
        physmem.merge_many(table, vpns[merged], target[merged])
        self.stats.merges += len(merged)

    def _examine_row(
        self, table: PageTable, vpn: int, fid: int, token: int, at: int
    ) -> None:
        """Run the KSM state machine on one pre-gathered candidate page
        (``at``: its table slot, which indexes the history).

        The gather already dropped unmapped and merged pages; the live
        STABLE re-check matters because an earlier row of the same group
        may have just promoted this frame.
        """
        physmem = self.physmem
        states = physmem.states
        tokens = physmem.tokens
        if states[fid] == FRAME_STABLE:
            return
        # One probe of the shared token index serves both trees.
        node = self._index.lookup(token)

        # Stable-tree half first: merging with existing stable pages does
        # not require the volatility check (matches kernel behaviour).
        if node is not None and node[0] == STABLE:
            stable_fid = node[1]
            if (
                states[stable_fid] != FRAME_STABLE
                or tokens[stable_fid] != token
            ):
                # Dead stable node: prune and fall through as a miss.
                self._index.drop(token)
                node = None
            elif stable_fid != fid:
                self._split_for_merge(fid)
                physmem.merge_into(table, vpn, stable_fid)
                self.stats.merges += 1
                return
            else:
                return  # this frame *is* the stable node

        # Volatility filter: the content must be unchanged since the last
        # time this page was examined.
        history = self._history[table]
        previous = history.last[at] if history.seen[at] else None
        history.last[at] = token
        history.seen[at] = True
        if previous != token:
            self.stats.volatile_skips += 1
            if self.config.scan_policy is not ScanPolicy.FULL:
                # The dirty log will not resubmit an unchanging page, so
                # schedule the second sighting explicitly.
                self._recheck[table].add(vpn)
            return

        # Unstable-tree half (node is None or an unstable candidate).
        if node is None:
            self._index.set_unstable(token, table, vpn)
            return
        _, partner_table, partner_vpn = node
        if partner_table is table and partner_vpn == vpn:
            return
        partner_fid = partner_table.translate(partner_vpn)
        if partner_fid is None or tokens[partner_fid] != token:
            # The partner was unmapped or rewritten: take its place.
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        if partner_fid == fid:
            # Same guest-shared frame reached through two mappings; nothing
            # to merge at the host level, but promote it to stable so later
            # candidates can join it.
            self._split_for_merge(fid)
            physmem.mark_ksm_stable(fid)
            self._index.set_stable(token, fid)
            return

        # Merge: promote the partner's frame to stable, fold this page in.
        # Either endpoint may sit inside an intact huge block — sharing
        # wins, so the blocks are split first (split-on-KSM-merge).
        self._split_for_merge(partner_fid)
        self._split_for_merge(fid)
        physmem.mark_ksm_stable(partner_fid)
        self._index.set_stable(token, partner_fid)
        physmem.merge_into(table, vpn, partner_fid)
        self.stats.merges += 1

    def _split_for_merge(self, fid: int) -> None:
        """Split the intact huge block around ``fid`` (if any) so the
        page can be merged; counts one ``thp_splits`` per real split."""
        if self.physmem.split_block_of(fid, "ksm-merge"):
            self.stats.thp_splits += 1

    def _record_history(self) -> None:
        """Sample the sharing gauges at a pass end."""
        self.history.append((self.clock.now_ms, *self._stable_gauges()[:2]))

    def _stable_gauges(self) -> Tuple[int, int, np.ndarray]:
        """``(pages_shared, pages_sharing, dead fids)`` over the stable
        nodes' fid column (cached against the stable revision).  A node's
        frame is alive and merged exactly when its state is STABLE
        (``mark_ksm_stable`` is the only setter, frees reset the state,
        and fids are never reused): two reads of ``states`` and ``refs``.
        """
        index = self._index
        rev = index.stable_rev
        cache = self._stable_cache
        if cache is None or cache[0] != rev:
            fids = index.stable_fids()
            cache = (rev, np.fromiter(fids, np.int64, len(fids)))
            self._stable_cache = cache
        fid_arr = cache[1]
        physmem = self.physmem
        states = np.frombuffer(physmem.states, dtype=np.uint8)[fid_arr]
        alive = states == FRAME_STABLE
        refs = np.frombuffer(physmem.refs, dtype=np.int64)[fid_arr]
        return int(alive.sum()), int(refs[alive].sum()), fid_arr[~alive]

    # ------------------------------------------------------------------
    # Cold-region hints (fed by the tiering layer)
    # ------------------------------------------------------------------

    def hint_cold(self, table: PageTable, vpns) -> int:
        """Queue quiescent ``vpns`` for the next incremental pass.

        The working-set estimator knows which regions went quiet *before*
        the dirty log could say so (the log only reports writes); hinting
        them lets the INCREMENTAL/HYBRID policies examine exactly the
        pages most likely to pass the volatility filter.  Returns the
        number of hints queued.  Hints are merged into the next
        incremental worklist and are subsumed (cleared) by a full pass,
        so FULL-policy behaviour is untouched.
        """
        hints = self._cold_hints.get(table)
        if hints is None:
            raise ValueError(f"table {table.name!r} is not registered")
        before = len(hints)
        hints.update(vpn for vpn in vpns if table.is_mapped(vpn))
        queued = len(hints) - before
        if queued:
            self._work_hint = True
        return queued

    def pending_cold_hints(self, table: PageTable) -> int:
        """Hinted vpns not yet consumed by a pass (introspection)."""
        return len(self._cold_hints.get(table, ()))

    # ------------------------------------------------------------------
    # Time-based driving
    # ------------------------------------------------------------------

    def _cycle(self, budget: int) -> int:
        """One wake/sleep cycle: scan up to ``budget`` pages, charge the
        burst's cost and sleep; returns the pages examined."""
        drained_before = self.stats.dirty_log_drained
        examined = self.scan_pages(budget)
        scan_ms = scan_cost_ms(
            examined,
            self.stats.dirty_log_drained - drained_before,
            self.config.cost_us_per_page,
            self.config.dirty_log_cost_us,
        )
        self.stats.cpu_ms += scan_ms
        advance = self.config.sleep_millisecs + int(scan_ms)
        self.clock.advance(advance)
        self.stats.elapsed_ms += advance
        return examined

    def run_cycles(self, cycles: int) -> None:
        """Run ``cycles`` wake/sleep cycles, advancing the clock."""
        for _ in range(cycles):
            self._cycle(self.config.pages_to_scan)

    def run_for_ms(self, duration_ms: int) -> KsmStats:
        """Run wake/sleep cycles until ``duration_ms`` of simulated time."""
        cost_ms_per_page = self.config.cost_us_per_page / 1000.0
        cycle_ms = self.config.sleep_millisecs + int(
            self.config.pages_to_scan * cost_ms_per_page
        )
        cycles = max(1, duration_ms // max(1, cycle_ms))
        self.run_cycles(int(cycles))
        return self.snapshot_stats()

    def run_until_converged(
        self, max_passes: int = 20, idle_passes: int = 2
    ) -> KsmStats:
        """Keep running full passes until merging stops making progress.

        Convergence means ``idle_passes`` consecutive full passes without a
        single new merge.  Used by the PowerVM "after finishing page
        sharing" measurements and by experiments that want the KSM steady
        state without caring about the time axis.
        """
        idle = 0
        for _ in range(max_passes):
            merges_before = self.stats.merges
            self._run_one_full_pass()
            if self.stats.merges == merges_before:
                idle += 1
                if idle >= idle_passes:
                    break
            else:
                idle = 0
        return self.snapshot_stats()

    def _run_one_full_pass(self) -> None:
        """Scan until ``full_scans`` increments (or there is no work)."""
        target = self.stats.full_scans + 1
        total_pages = sum(len(table) for table in self._tables)
        if total_pages == 0:
            return
        # Generous budget: a full pass plus slack for mid-pass remappings.
        budget = total_pages * 2 + 16
        while self.stats.full_scans < target and budget > 0:
            step = min(self.config.pages_to_scan, budget)
            examined = self._cycle(step)
            budget -= step
            if examined == 0 and self.stats.full_scans < target:
                # Nothing to examine (idle dirty logs / empty tables):
                # no pass will ever complete, so stop burning cycles.
                break

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def snapshot_stats(self) -> KsmStats:
        """Recompute the sharing gauges, drop the dead stable nodes and
        return a copy of the stats."""
        shared, sharing, dead = self._stable_gauges()
        if len(dead):
            # A stable frame holds one token, so one node names it.
            dead = set(dead.tolist())
            for token, fid in self._index.stable_items():
                if fid in dead:
                    self._index.drop(token)
        self.stats.pages_shared = shared
        self.stats.pages_sharing = sharing
        return replace(self.stats, extra={})

    @property
    def saved_bytes(self) -> int:
        """Bytes of host physical memory currently saved by merging."""
        stats = self.snapshot_stats()
        return stats.pages_saved * self.physmem.page_size

    # ------------------------------------------------------------------
    # Bookkeeping introspection (used by repro.core.validate and tests)
    # ------------------------------------------------------------------

    def volatility_tracked(self, table: PageTable) -> Dict[int, int]:
        """The vpn → last-seen-token map kept for ``table``, as a dict."""
        history = self._history.get(table)
        if history is None:
            return {}
        last, seen = history.columns()
        at = np.flatnonzero(seen)
        return dict(zip(table.vpns_at(at).tolist(), last[at].tolist()))

    @property
    def unstable_candidates(self) -> int:
        """Live unstable-tree nodes (persistent under INCREMENTAL)."""
        return self._index.unstable_count
