"""The batched columnar KSM scan engine.

:class:`BatchKsmScanner` executes each scan burst as columnar kernels
over whole worklist segments instead of the per-page ``_examine`` loop
of :class:`repro.ksm.scanner.KsmScanner`, while producing bit-identical
merges, :class:`repro.ksm.stats.KsmStats`, scan-cost charging and
convergence history under all three scan policies.  It rides the same
pass machinery (worklist installation, pass boundaries, history
sampling) as the object engine — only the examination of an installed
worklist is vectorized.

Why whole-segment batching is safe
----------------------------------

During a scan burst only the scanner mutates memory, and every mutation
it performs is *token-local*:

* a merge re-points one vpn at a frame holding the **same** token (the
  frame backing any not-yet-examined page stays alive — its own mapping
  holds a reference — and frame tokens never change mid-burst);
* ``ksm_stable`` is only ever set on frames whose token equals the
  group's token;
* the token index and volatility map are keyed by token and vpn, and a
  worklist never repeats a vpn.

Hence pages of *different* tokens cannot affect each other's
examination, and the examined-at-segment-start snapshot of
(fid, token, stable) is exact.  The engine therefore:

1. **gathers** the segment as flat columns: a per-worklist vpn column
   plus its bulk translation (:meth:`PageTable.translate_many`), cached
   and keyed by ``(version, remap_epoch)`` so the steady state — where
   no mapping moves between passes — re-translates nothing; frame
   state and token columns come from the
   :class:`repro.mem.physmem.FrameMirror` (zero-copy numpy views over
   its ``array('Q')``/``bytearray`` storage on the numpy backend).
   Unmapped and already-stable pages drop out in one vectorized mask —
   the steady-state hot path, where almost every page is merged;
2. **groups** the survivors by content token with the shared
   ``ops.group_sizes`` kernel (a stable argsort, so in-group order is
   segment order — the only order that matters), picking the rows out
   of the cached vpn/fid lists by position so the ints the scanner
   keeps are the page table's own.  When a set of the segment's tokens
   shows them all distinct, every row is a singleton and the sort is
   skipped;
3. applies **unseen singletons** — when no singleton token has a node
   in either tree (one C-level :meth:`TokenIndex.any_node` check) —
   with list and dict operations only: the volatility filter is a
   list compare against the volatility map, and the unchanged rows go
   into the unstable tree in one bulk insert
   (:meth:`TokenIndex.bulk_set_unstable_fresh`).  A *settled* segment,
   where no content changed since the last pass, is just the compare
   and the insert.  This is the steady-state FULL pass over converged
   memory, where the object engine inserts every unique page one by
   one;
4. otherwise dispatches **singleton groups** through one fused kernel:
   a bulk index probe (:meth:`TokenIndex.lookup` per token), step 3
   for the rows without a node, and one
   :meth:`HostPhysicalMemory.merge_many` call for the elected
   stable-tree merges;
5. runs **multi-page groups** (and the rare stale/unstable tails)
   through :meth:`_examine_row`, a faithful per-row replica of the
   object engine's state machine, in segment order.

Tokens are full unsigned 64-bit hashes (and tests may feed arbitrary
ints), so the numpy path groups by the mirror's *masked* uint64 key
column while all semantic operations use the exact Python tokens; a
masked collision can only route a group to the slow per-row path, never
change a result.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, not_
from typing import Dict, List, Optional, Tuple

from repro.core.columnar.backend import (
    BACKEND_NUMPY,
    BACKEND_STDLIB,
    ops_for,
    resolve_backend,
)
from repro.ksm.index import STABLE
from repro.ksm.scanner import KsmConfig, KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.physmem import FrameMirror, HostPhysicalMemory
from repro.sim.clock import SimClock

#: Row = (vpn, fid, token); multi-page groups carry them in segment order.
Row = Tuple[int, int, int]


class BatchKsmScanner(KsmScanner):
    """Columnar scan engine, bit-identical to the object scanner."""

    def __init__(
        self,
        physmem: HostPhysicalMemory,
        clock: SimClock,
        config: Optional[KsmConfig] = None,
        columnar_backend: Optional[str] = None,
    ) -> None:
        super().__init__(physmem, clock, config)
        backend = resolve_backend(columnar_backend or "columnar")
        if backend not in (BACKEND_NUMPY, BACKEND_STDLIB):
            raise ValueError(
                f"batch scan engine needs a columnar backend, got {backend!r}"
            )
        self.columnar_backend = backend
        self._ops = ops_for(backend)
        self._np = self._ops.np if self._ops.is_numpy else None
        self._mirror = physmem.attach_frame_mirror()
        # Columnar worklist state: per-table persistent caches for the
        # (version-cached) full worklists, and the columns of whatever
        # worklist is currently installed.  ``fids`` lazily mirrors the
        # vpn column's translation, keyed by (version, remap_epoch) —
        # exact because any translation change bumps one of the two.
        self._column_cache: Dict[PageTable, dict] = {}
        self._cur: Optional[dict] = None
        # Stable-tree fid column for the per-pass history gauges,
        # cached against the index's stable revision.
        self._stable_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # The burst loop: same shape as the object engine, but the current
    # worklist is consumed in whole remaining-budget slices.
    # ------------------------------------------------------------------

    def scan_pages(self, budget: int) -> int:
        """Examine up to ``budget`` pages; returns the number examined."""
        if budget <= 0 or not self._tables:
            return 0
        if not self._work_hint and self._scan_pos >= len(self._scan_list):
            if self._started_pass:
                self._table_cursor = (
                    self._table_cursor + 2
                ) % len(self._tables)
            return 0
        examined = 0
        empty_rounds = 0
        while examined < budget:
            if self._scan_pos >= len(self._scan_list):
                if not self._advance_table():
                    empty_rounds += 1
                    if empty_rounds > len(self._tables) + 1:
                        self._work_hint = False
                        break
                    continue
                empty_rounds = 0
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

    # ------------------------------------------------------------------
    # Worklist columns (primed at install, cached across passes)
    # ------------------------------------------------------------------

    def _install_full_worklist(self, table: PageTable) -> None:
        super()._install_full_worklist(table)
        cached = self._column_cache.get(table)
        if cached is None or cached["vpns"] is not self._scan_list:
            # The base class hands out the same list object while the
            # table's mapping set is unchanged, so identity is the key.
            cached = self._fresh_columns(self._scan_list)
            self._column_cache[table] = cached
        self._cur = cached

    def _install_incremental_worklist(self, table: PageTable) -> None:
        """Same worklist as the object engine, with the mapped/unmapped
        partition of the drained log done through one bulk translate."""
        drained = table.drain_dirty()
        if drained:
            self.stats.dirty_log_drained += len(drained)
        due = set()
        last = self._last_tokens[table]
        if drained:
            dead: List[int] = []
            for vpn, fid in zip(drained, table.translate_many(drained)):
                if fid >= 0:
                    due.add(vpn)
                else:
                    dead.append(vpn)
            for vpn in dead:
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
        # Incremental worklists are fresh objects every pass; no reuse.
        self._cur = self._fresh_columns(self._scan_list)

    @staticmethod
    def _fresh_columns(vpns: List[int]) -> dict:
        return {"vpns": vpns, "fids": None, "fid_arr": None, "fkey": None}

    def _segment_fids(self, table: PageTable, cur: dict):
        """The worklist's translation column, rebuilt only when some
        translation may have moved since it was built."""
        fkey = (table.version, table.remap_epoch)
        if cur["fids"] is None or cur["fkey"] != fkey:
            fids = table.translate_many(cur["vpns"])
            cur["fids"] = fids
            if self._np is not None:
                cur["fid_arr"] = self._np.fromiter(
                    fids, self._np.int64, len(fids)
                )
            cur["fkey"] = fkey
        return cur

    # ------------------------------------------------------------------
    # Stage A/B: gather + group (backend-specific)
    # ------------------------------------------------------------------

    def _examine_segment(
        self, table: PageTable, start: int, stop: int
    ) -> None:
        cur = self._segment_fids(table, self._cur)
        if self._np is not None:
            gathered = self._gather_numpy(cur, start, stop)
        else:
            gathered = self._gather_stdlib(cur, start, stop)
        if gathered is not None:
            self._process_groups(table, *gathered)

    def _gather_numpy(self, cur: dict, start: int, stop: int):
        np = self._np
        mirror = self._mirror
        fid_view = cur["fid_arr"][start:stop]
        # Zero-copy views over the mirror columns.  Slot 0 is a
        # permanent FREE pad, so unmapped translations (-1) clamp to it
        # and fall out of the active mask with no extra branch.  The
        # views never outlive this call, and in-burst mutations only
        # store into existing slots (no resize), so exporting the
        # buffers is safe.
        states = np.frombuffer(mirror.states, dtype=np.uint8)
        active = (
            states[np.where(fid_view >= 0, fid_view, 0)]
            == FrameMirror.ACTIVE
        )
        if not active.any():
            return None
        positions = np.flatnonzero(active)
        # Pick rows out of the cached vpn/fid lists by position rather
        # than materializing them from int64 columns: the ints the
        # volatility map and the unstable tree keep are then the page
        # table's own objects, not fresh per-pass copies.
        vpns = cur["vpns"].__getitem__
        fids = cur["fids"].__getitem__
        tokens = mirror.tokens
        picks = (positions + start).tolist()
        of = list(map(fids, picks))
        ot = list(map(tokens.__getitem__, of))
        if len(set(ot)) == len(ot):
            # Every token occurs once: all rows are singletons, left in
            # segment order (groups are independent, so any order is).
            return list(map(vpns, picks)), of, ot, ()
        # Some token repeats: reorder the gathered rows by token (stable,
        # so segment order within a group) and split off the groups.
        masked = np.frombuffer(mirror.masked, dtype=np.uint64)
        order, sizes = self._ops.group_sizes(masked[fid_view[positions]])
        order = order.tolist()
        ov = list(map(vpns, map(picks.__getitem__, order)))
        of = list(map(of.__getitem__, order))
        ot = list(map(ot.__getitem__, order))
        sv: List[int] = []
        sf: List[int] = []
        st: List[int] = []
        multis: List[List[Row]] = []
        sizes_list = sizes.tolist()
        i = 0
        total = len(ov)
        while i < total:
            size = sizes_list[i]
            if size == 1:
                sv.append(ov[i])
                sf.append(of[i])
                st.append(ot[i])
            else:
                end = i + size
                multis.append(list(zip(ov[i:end], of[i:end], ot[i:end])))
            i += size
        return sv, sf, st, multis

    def _gather_stdlib(self, cur: dict, start: int, stop: int):
        mirror = self._mirror
        states = mirror.states
        tokens = mirror.tokens
        active = FrameMirror.ACTIVE
        # Group by exact token via one fused pass; a group stays a tuple
        # until a second member upgrades it to a row list (in segment
        # order, like the stable argsort on the numpy path).
        groups: dict = {}
        get = groups.get
        for vpn, fid in zip(
            cur["vpns"][start:stop], cur["fids"][start:stop]
        ):
            if fid < 0 or states[fid] != active:
                continue
            token = tokens[fid]
            prev = get(token)
            if prev is None:
                groups[token] = (vpn, fid)
            elif type(prev) is tuple:
                groups[token] = [
                    (prev[0], prev[1], token),
                    (vpn, fid, token),
                ]
            else:
                prev.append((vpn, fid, token))
        if not groups:
            return None
        sv: List[int] = []
        sf: List[int] = []
        st: List[int] = []
        multis: List[List[Row]] = []
        for token, group in groups.items():
            if type(group) is tuple:
                sv.append(group[0])
                sf.append(group[1])
                st.append(token)
            else:
                multis.append(group)
        return sv, sf, st, multis

    # ------------------------------------------------------------------
    # Stage C/D: the fused singleton kernel + per-row group tails
    # ------------------------------------------------------------------

    def _process_groups(
        self,
        table: PageTable,
        sv: List[int],
        sf: List[int],
        st: List[int],
        multis,
    ) -> None:
        # Token groups are independent (module docstring), so group
        # processing order is free; in-group order is segment order.
        if sv:
            if self._index.any_node(st):
                self._examine_singletons(table, sv, sf, st)
            else:
                self._insert_unseen(table, sv, st)
        for rows in multis:
            for vpn, fid, token in rows:
                self._examine_row(table, vpn, fid, token)

    def _insert_unseen(
        self, table: PageTable, sv: List[int], st: List[int]
    ) -> None:
        """Singletons none of whose tokens has a node in either tree.

        Each row then only runs the volatility filter and, when its
        content is unchanged since the page was last examined, becomes a
        fresh unstable candidate — so the rows are applied with C-level
        list and dict operations instead of a per-row loop.  A settled
        segment, where no row's content changed, is one list compare
        and one bulk insert.
        """
        last = self._last_tokens[table]
        previous = list(map(last.get, sv))
        if previous == st:
            self._index.bulk_set_unstable_fresh(st, table, sv)
            return
        # A worklist never repeats a vpn, so reading every previous
        # token before storing the new ones matches the per-row order.
        last.update(zip(sv, st))
        same = list(map(eq, previous, st))
        fresh_v = list(compress(sv, same))
        self.stats.volatile_skips += len(sv) - len(fresh_v)
        if self.config.scan_policy is not ScanPolicy.FULL:
            self._recheck[table].update(compress(sv, map(not_, same)))
        if fresh_v:
            self._index.bulk_set_unstable_fresh(
                list(compress(st, same)), table, fresh_v
            )

    def _examine_singletons(
        self, table: PageTable, sv: List[int], sf: List[int], st: List[int]
    ) -> None:
        """The fused singleton kernel: one bulk probe, then per-row
        stable-merge handling with bulk-applied effects; the rows with
        no node take :meth:`_insert_unseen` together."""
        index = self._index
        physmem = self.physmem
        frame_of = physmem.frame
        row = self._examine_row
        unseen_v: List[int] = []
        unseen_t: List[int] = []
        merges: List[Tuple[int, int]] = []
        nodes = list(map(index.lookup, st))
        for vpn, fid, token, node in zip(sv, sf, st, nodes):
            if node is None:
                unseen_v.append(vpn)
                unseen_t.append(token)
            elif node[0] == STABLE:
                stable_fid = node[1]
                stable_frame = frame_of(stable_fid)
                if (
                    stable_frame is None
                    or stable_frame.token != token
                    or not stable_frame.ksm_stable
                ):
                    # Dead stable node: prune, then rerun the row — the
                    # re-probe misses, exactly the object engine's
                    # fall-through.
                    index.drop(token)
                    row(table, vpn, fid, token)
                elif stable_fid != fid:
                    # Split-on-KSM-merge happens eagerly (matching the
                    # object engine's examination order) even though the
                    # merge itself is deferred — splits are idempotent
                    # and blocks never re-form mid-pass, so the deferral
                    # cannot diverge.
                    self._split_for_merge(fid)
                    merges.append((vpn, stable_fid))
                # else: this frame *is* the stable node.
            else:
                row(table, vpn, fid, token)
        if unseen_v:
            self._insert_unseen(table, unseen_v, unseen_t)
        if merges:
            self.stats.merges += physmem.merge_many(table, merges)

    def _examine_row(
        self, table: PageTable, vpn: int, fid: int, token: int
    ) -> None:
        """The object engine's state machine for one pre-gathered row.

        Must stay in lockstep with ``KsmScanner._examine`` (minus the
        translate/stable-skip prologue the gather already applied); the
        live ``ksm_stable`` re-check matters because an earlier row of
        the same group may have just promoted this frame.
        """
        physmem = self.physmem
        frame = physmem.get_frame(fid)
        if frame.ksm_stable:
            return
        node = self._index.lookup(token)

        if node is not None and node[0] == STABLE:
            stable_fid = node[1]
            stable_frame = physmem.frame(stable_fid)
            if (
                stable_frame is None
                or stable_frame.token != token
                or not stable_frame.ksm_stable
            ):
                self._index.drop(token)
                node = None
            elif stable_fid != fid:
                self._split_for_merge(fid)
                physmem.merge_into(table, vpn, stable_fid)
                self.stats.merges += 1
                return
            else:
                return

        last = self._last_tokens[table]
        previous = last.get(vpn)
        last[vpn] = token
        if previous != token:
            self.stats.volatile_skips += 1
            if self.config.scan_policy is not ScanPolicy.FULL:
                self._recheck[table].add(vpn)
            return

        if node is None:
            self._index.set_unstable(token, table, vpn)
            return
        _, partner_table, partner_vpn = node
        if partner_table is table and partner_vpn == vpn:
            return
        partner_fid = partner_table.translate(partner_vpn)
        if partner_fid is None:
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        partner_frame = physmem.get_frame(partner_fid)
        if partner_frame.token != token:
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        if partner_fid == fid:
            self._split_for_merge(fid)
            physmem.mark_ksm_stable(fid)
            self._index.set_stable(token, fid)
            return
        self._split_for_merge(partner_fid)
        self._split_for_merge(fid)
        physmem.mark_ksm_stable(partner_fid)
        self._index.set_stable(token, partner_fid)
        physmem.merge_into(table, vpn, partner_fid)
        self.stats.merges += 1

    # ------------------------------------------------------------------
    # Bookkeeping hooks
    # ------------------------------------------------------------------

    def _record_history(self) -> None:
        """The per-pass sharing gauges, computed over mirror columns.

        Equivalent to the object engine's stable-tree walk: a stable
        node's frame is alive *and* ``ksm_stable`` exactly when its
        mirror state is STABLE (``mark_ksm_stable`` is the only setter,
        frees reset the state, and fids are never reused), and the
        mirror's ``refs`` column tracks ``Frame.refcount`` exactly.
        """
        index = self._index
        rev = index.stable_rev
        cache = self._stable_cache
        if cache is None or cache[0] != rev:
            fids = index.stable_fids()
            arr = (
                self._np.fromiter(fids, self._np.int64, len(fids))
                if self._np is not None
                else None
            )
            cache = self._stable_cache = (rev, fids, arr)
        mirror = self._mirror
        np = self._np
        if np is not None:
            fid_arr = cache[2]
            states = np.frombuffer(mirror.states, dtype=np.uint8)[fid_arr]
            alive = states == FrameMirror.STABLE
            shared = int(alive.sum())
            refs = np.frombuffer(mirror.refs, dtype=np.int64)[fid_arr]
            sharing = int(refs[alive].sum())
        else:
            states = mirror.states
            refs = mirror.refs
            stable = FrameMirror.STABLE
            shared = 0
            sharing = 0
            for fid in cache[1]:
                if states[fid] == stable:
                    shared += 1
                    sharing += refs[fid]
        self.history.append((self.clock.now_ms, shared, sharing))

    def unregister(self, table: PageTable) -> None:
        super().unregister(table)
        self._column_cache.pop(table, None)
