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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config import DEFAULT_SCAN_ENGINE
from repro.ksm.index import STABLE, TokenIndex
from repro.ksm.stats import KsmStats
from repro.mem.address_space import PageTable
from repro.mem.physmem import HostPhysicalMemory
from repro.perf.scancost import (
    DEFAULT_COST_US_PER_PAGE,
    DEFAULT_DIRTY_LOG_COST_US,
    scan_cost_ms,
)
from repro.sim.clock import SimClock


#: Valid values for :attr:`KsmConfig.scan_engine`.
SCAN_ENGINES = ("object", "batch")


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
    #: Which scan-engine implementation runs the passes: "batch" (the
    #: columnar engine in :mod:`repro.ksm.batch`) or "object" (the
    #: per-page loop below, the bit-identical reference).
    scan_engine: str = DEFAULT_SCAN_ENGINE

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
        if self.scan_engine not in SCAN_ENGINES:
            raise ValueError(
                f"unknown scan_engine {self.scan_engine!r}; "
                f"expected one of {sorted(SCAN_ENGINES)}"
            )


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
        # per-table (by identity): vpn -> token at the previous examination
        self._last_tokens: Dict[PageTable, Dict[int, int]] = {}
        self.stats = KsmStats()
        #: One sample per completed scan pass: (sim time ms, pages_shared,
        #: pages_sharing).  Lets callers plot convergence over time.
        self.history: List[Tuple[int, int, int]] = []
        # Walk state: index into tables plus a persistent cursor into the
        # current table's worklist (ascending vpn order).
        self._table_cursor = 0
        self._scan_list: List[int] = []
        self._scan_pos = 0
        self._started_pass = False
        # FULL-pass worklist cache: table -> (table.version, sorted vpns).
        self._full_cache: Dict[PageTable, Tuple[int, List[int]]] = {}
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
        self._last_tokens[table] = {}
        # madvise(MERGEABLE) semantics: every page the table *already*
        # maps is a merge candidate from now on.  The dirty log only
        # covers writes after this point, so without seeding the recheck
        # set an INCREMENTAL scanner would never examine pre-registration
        # pages — visible as a below-FULL fixpoint when a table is
        # unregistered (dropping its pending worklist) and re-registered.
        self._recheck[table] = {vpn for vpn, _ in table.entries()}
        self._cold_hints[table] = set()
        table.attach_dirty_sink(self._note_table_event)
        self._work_hint = True

    def unregister(self, table: PageTable) -> None:
        """Stop scanning ``table`` (existing merges stay in place)."""
        for index, existing in enumerate(self._tables):
            if existing is table:
                del self._tables[index]
                table.detach_dirty_sink(self._note_table_event)
                self._last_tokens.pop(table, None)
                self._recheck.pop(table, None)
                self._cold_hints.pop(table, None)
                self._full_cache.pop(table, None)
                self._pruned_version.pop(table, None)
                # Unstable candidates pointing into this table must not
                # survive it: a later identical page would merge against
                # an unregistered mapping (kernel removes the mm's rmap
                # items; FULL never hits this because it discards the
                # unstable tree every pass).
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
                    self._scan_list = []
                    self._scan_pos = 0
                    self._table_cursor -= 1
                return
        raise ValueError(f"table {table.name!r} is not registered")

    @property
    def registered_tables(self) -> Tuple[PageTable, ...]:
        return tuple(self._tables)

    def _note_table_event(self, _vpn: int = -1) -> None:
        """Dirty-sink callback: some registered table has new work."""
        self._work_hint = True

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def scan_pages(self, budget: int) -> int:
        """Examine up to ``budget`` pages; returns the number examined."""
        if budget <= 0 or not self._tables:
            return 0
        if not self._work_hint and self._scan_pos >= len(self._scan_list):
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
            vpn = self._scan_list[self._scan_pos]
            self._scan_pos += 1
            table = self._tables[self._table_cursor]
            self._examine(table, vpn)
            examined += 1
            self._pass_examined += 1
        self.stats.pages_scanned += examined
        return examined

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
        """Decide whether the pass now starting walks everything."""
        policy = self.config.scan_policy
        if policy is ScanPolicy.FULL:
            self._current_pass_full = True
        elif policy is ScanPolicy.INCREMENTAL:
            self._current_pass_full = False
        else:  # HYBRID
            interval = self.config.hybrid_full_interval
            self._current_pass_full = self._passes_done % interval == 0

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
        if self._current_pass_full:
            self._prune_last_tokens()
        self._record_history()

    def _install_full_worklist(self, table: PageTable) -> None:
        """Every mapped vpn, ascending — cached while the mapping set
        is unchanged, so an undisturbed table is never re-sorted."""
        version = table.version
        cached = self._full_cache.get(table)
        if cached is None or cached[0] != version:
            vpns = sorted(vpn for vpn, _ in table.entries())
            self._full_cache[table] = (version, vpns)
        else:
            vpns = cached[1]
        # A full pass subsumes whatever the dirty log holds; discard it
        # so the log stays bounded even when no incremental pass runs.
        table.clear_dirty()
        # The full walk also supersedes any pending rechecks and hints.
        recheck = self._recheck.get(table)
        if recheck:
            recheck.clear()
        hints = self._cold_hints.get(table)
        if hints:
            hints.clear()
        self._scan_list = vpns
        self._scan_pos = 0

    def _install_incremental_worklist(self, table: PageTable) -> None:
        """Dirty-logged vpns plus pending rechecks, ascending.

        Draining the log also prunes bookkeeping for vpns that were
        unmapped: their volatility history is dropped and any unstable
        node still pointing at the dead mapping is retired.
        """
        due: Set[int] = set()
        drained = table.drain_dirty()
        if drained:
            self.stats.dirty_log_drained += len(drained)
        last = self._last_tokens[table]
        for vpn in drained:
            if table.is_mapped(vpn):
                due.add(vpn)
                continue
            previous = last.pop(vpn, None)
            if previous is None:
                continue
            node = self._index.lookup(previous)
            if (
                node is not None
                and node[0] != STABLE
                and node[1] is table
                and node[2] == vpn
            ):
                self._index.drop(previous)
        recheck = self._recheck[table]
        if recheck:
            due.update(vpn for vpn in recheck if table.is_mapped(vpn))
            recheck.clear()
        hints = self._cold_hints[table]
        if hints:
            due.update(vpn for vpn in hints if table.is_mapped(vpn))
            hints.clear()
        self._scan_list = sorted(due)
        self._scan_pos = 0

    def _prune_last_tokens(self) -> None:
        """Drop volatility history for vpns no longer mapped (full-pass
        end); the incremental path prunes via the dirty log instead."""
        for table in self._tables:
            last = self._last_tokens.get(table)
            if not last:
                continue
            # Entries are only recorded for mapped vpns, and the pruned
            # state was itself all-mapped, so unless the mapping *set*
            # changed since the last prune there is nothing dead.
            version = table.version
            if self._pruned_version.get(table) == version:
                continue
            self._pruned_version[table] = version
            # C-speed key-view difference instead of a per-vpn
            # is_mapped probe; survivors keep their insertion order.
            dead = last.keys() - table.mapped_vpns()
            for vpn in dead:
                del last[vpn]

    def _examine(self, table: PageTable, vpn: int) -> None:
        """Run the KSM state machine on one candidate page."""
        fid = table.translate(vpn)
        if fid is None:
            return  # unmapped since the worklist was built
        frame = self.physmem.get_frame(fid)
        if frame.ksm_stable:
            return  # already merged
        token = frame.token

        # One probe of the shared token index serves both trees.
        node = self._index.lookup(token)

        # Stable-tree half first: merging with existing stable pages does
        # not require the volatility check (matches kernel behaviour).
        if node is not None and node[0] == STABLE:
            stable_fid = node[1]
            stable_frame = self.physmem.frame(stable_fid)
            if (
                stable_frame is None
                or stable_frame.token != token
                or not stable_frame.ksm_stable
            ):
                # Dead stable node: prune and fall through as a miss.
                self._index.drop(token)
                node = None
            elif stable_fid != fid:
                self._split_for_merge(fid)
                self.physmem.merge_into(table, vpn, stable_fid)
                self.stats.merges += 1
                return
            else:
                return  # this frame *is* the stable node

        # Volatility filter: the content must be unchanged since the last
        # time this page was examined.
        last = self._last_tokens[table]
        previous = last.get(vpn)
        last[vpn] = token
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
        if partner_fid is None:
            # Partner page was unmapped; take its slot.
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        partner_frame = self.physmem.get_frame(partner_fid)
        if partner_frame.token != token:
            # Partner was rewritten since insertion; replace it.
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        if partner_fid == fid:
            # Same guest-shared frame reached through two mappings; nothing
            # to merge at the host level, but promote it to stable so later
            # candidates can join it.
            self._split_for_merge(fid)
            self.physmem.mark_ksm_stable(fid)
            self._index.set_stable(token, fid)
            return

        # Merge: promote the partner's frame to stable, fold this page in.
        # Either endpoint may sit inside an intact huge block — sharing
        # wins, so the blocks are split first (split-on-KSM-merge).
        self._split_for_merge(partner_fid)
        self._split_for_merge(fid)
        self.physmem.mark_ksm_stable(partner_fid)
        self._index.set_stable(token, partner_fid)
        self.physmem.merge_into(table, vpn, partner_fid)
        self.stats.merges += 1

    def _split_for_merge(self, fid: int) -> None:
        """Split the intact huge block around ``fid`` (if any) so the
        page can be merged; counts one ``thp_splits`` per real split."""
        if self.physmem.split_block_of(fid, "ksm-merge"):
            self.stats.thp_splits += 1

    def _record_history(self) -> None:
        shared = 0
        sharing = 0
        for _token, fid in self._index.stable_items():
            frame = self.physmem.frame(fid)
            if frame is not None and frame.ksm_stable:
                shared += 1
                sharing += frame.refcount
        self.history.append((self.clock.now_ms, shared, sharing))

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

    def _charged_scan_ms(self, budget: int) -> Tuple[int, float]:
        """Scan up to ``budget`` pages and price the burst."""
        drained_before = self.stats.dirty_log_drained
        examined = self.scan_pages(budget)
        drained = self.stats.dirty_log_drained - drained_before
        return examined, scan_cost_ms(
            examined,
            drained,
            self.config.cost_us_per_page,
            self.config.dirty_log_cost_us,
        )

    def run_cycles(self, cycles: int) -> None:
        """Run ``cycles`` wake/sleep cycles, advancing the clock."""
        for _ in range(cycles):
            _examined, scan_ms = self._charged_scan_ms(
                self.config.pages_to_scan
            )
            self.stats.cpu_ms += scan_ms
            advance = self.config.sleep_millisecs + int(scan_ms)
            self.clock.advance(advance)
            self.stats.elapsed_ms += advance

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
            examined, scan_ms = self._charged_scan_ms(step)
            self.stats.cpu_ms += scan_ms
            advance = self.config.sleep_millisecs + int(scan_ms)
            self.clock.advance(advance)
            self.stats.elapsed_ms += advance
            budget -= step
            if examined == 0 and self.stats.full_scans < target:
                # Nothing to examine (idle dirty logs / empty tables):
                # no pass will ever complete, so stop burning cycles.
                break

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def snapshot_stats(self) -> KsmStats:
        """Recompute the sharing gauges and return a copy of the stats."""
        shared = 0
        sharing = 0
        dead_tokens = []
        for token, fid in self._index.stable_items():
            frame = self.physmem.frame(fid)
            if frame is None or not frame.ksm_stable:
                dead_tokens.append(token)
                continue
            shared += 1
            sharing += frame.refcount
        for token in dead_tokens:
            self._index.drop(token)
        self.stats.pages_shared = shared
        self.stats.pages_sharing = sharing
        return KsmStats(
            pages_shared=self.stats.pages_shared,
            pages_sharing=self.stats.pages_sharing,
            full_scans=self.stats.full_scans,
            pages_scanned=self.stats.pages_scanned,
            merges=self.stats.merges,
            volatile_skips=self.stats.volatile_skips,
            stale_drops=self.stats.stale_drops,
            dirty_log_drained=self.stats.dirty_log_drained,
            thp_splits=self.stats.thp_splits,
            cpu_ms=self.stats.cpu_ms,
            elapsed_ms=self.stats.elapsed_ms,
        )

    @property
    def saved_bytes(self) -> int:
        """Bytes of host physical memory currently saved by merging."""
        stats = self.snapshot_stats()
        return stats.pages_saved * self.physmem.page_size

    # ------------------------------------------------------------------
    # Bookkeeping introspection (used by repro.core.validate and tests)
    # ------------------------------------------------------------------

    def volatility_tracked(self, table: PageTable) -> Dict[int, int]:
        """Copy of the vpn → last-seen-token map kept for ``table``."""
        return dict(self._last_tokens.get(table, {}))

    @property
    def unstable_candidates(self) -> int:
        """Live unstable-tree nodes (persistent under INCREMENTAL)."""
        return self._index.unstable_count
