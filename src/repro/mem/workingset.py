"""PML-driven working-set estimation.

The dirty-vpn logs on :class:`~repro.mem.address_space.PageTable` are the
software analogue of Intel's Page-Modification Logging.  Bitchebe et al.
(PAPERS.md) show that draining such logs on a fixed cadence yields a cheap
working-set estimator: every epoch, pages that appeared in the log get
their "heat" bumped; pages that stayed quiet decay geometrically.  The
estimator below implements exactly that scheme on top of the dirty-sink
hook, so it never races with the KSM scanner, which drains the *primary*
log for its ``INCREMENTAL`` policy.

Heat bookkeeping is lazy: per page we store ``(heat, last_epoch)`` and
materialise the decayed value ``heat * decay**(now - last_epoch)`` only on
query.  With per-epoch increments of 1 the heat of a continuously-touched
page converges to ``1 / (1 - decay)``, which bounds how long a page can
stay above the hot threshold after it goes quiet — see
:meth:`WorkingSetEstimator.hot_window_epochs`.

Everything is deterministic: tables are tracked in registration order and
all vpn queries return sorted tuples, so tiering runs are bit-identical
across serial and parallel execution.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from .address_space import PageTable

__all__ = ["WorkingSetEstimator", "DEFAULT_DECAY", "DEFAULT_HOT_THRESHOLD"]

#: Per-epoch geometric decay applied to page heat.
DEFAULT_DECAY = 0.75

#: Heat at or above which a page counts as part of the working set.
DEFAULT_HOT_THRESHOLD = 1.0

# Heat entries below this are dropped entirely so the histogram stays
# proportional to the *recently touched* page population, not to every
# page ever dirtied.
_PRUNE_EPSILON = 1e-6


class WorkingSetEstimator:
    """Epoch-based hot/cold histogram over one or more page tables.

    Attach tables with :meth:`track`; every dirty vpn they log is buffered
    and folded into the heat histogram at the next :meth:`advance_epoch`.
    Queries (:meth:`hot_vpns`, :meth:`cold_vpns`, :meth:`wss_bytes`) are
    read-only and may be issued at any time.
    """

    def __init__(
        self,
        page_size: int,
        *,
        decay: float = DEFAULT_DECAY,
        hot_threshold: float = DEFAULT_HOT_THRESHOLD,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if hot_threshold <= 0.0:
            raise ValueError("hot_threshold must be positive")
        self.page_size = page_size
        self.decay = decay
        self.hot_threshold = hot_threshold
        self._epoch = 0
        self._tables: List[PageTable] = []
        # Per-table epoch buffer filled by the dirty sink; cleared (in
        # place — the sink closure is bound to the set object) on drain.
        self._buffers: Dict[PageTable, Set[int]] = {}
        self._sinks: Dict[PageTable, object] = {}
        # vpn -> (heat at last_epoch, last_epoch)
        self._heat: Dict[PageTable, Dict[int, Tuple[float, int]]] = {}

    # ------------------------------------------------------------------
    # Table registration
    # ------------------------------------------------------------------

    def track(self, table: PageTable) -> None:
        """Start estimating the working set of ``table``."""
        if table in self._buffers:
            return
        buffer: Set[int] = set()

        def sink(vpns) -> None:
            buffer.update(map(int, vpns))

        table.attach_dirty_sink(sink)
        self._tables.append(table)
        self._buffers[table] = buffer
        self._sinks[table] = sink
        self._heat[table] = {}

    def untrack(self, table: PageTable) -> None:
        """Stop estimating ``table`` and drop its histogram."""
        if table not in self._buffers:
            return
        table.detach_dirty_sink(self._sinks.pop(table))  # type: ignore[arg-type]
        self._tables.remove(table)
        del self._buffers[table]
        del self._heat[table]

    def tables(self) -> Tuple[PageTable, ...]:
        """Tracked tables, in registration order."""
        return tuple(self._tables)

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Number of completed epochs."""
        return self._epoch

    def advance_epoch(self) -> None:
        """Close the current epoch: fold buffered dirty vpns into heat."""
        self._epoch += 1
        now = self._epoch
        for table in self._tables:
            buffer = self._buffers[table]
            heat = self._heat[table]
            for vpn in buffer:
                prior, last = heat.get(vpn, (0.0, now))
                heat[vpn] = (prior * self.decay ** (now - last) + 1.0, now)
            buffer.clear()
            # Prune fully-cooled entries so the histogram stays bounded.
            dead = [
                vpn
                for vpn, (h, last) in heat.items()
                if h * self.decay ** (now - last) < _PRUNE_EPSILON
            ]
            for vpn in dead:
                del heat[vpn]

    def hot_window_epochs(self) -> int:
        """Epochs after which an untouched page is guaranteed cold.

        Heat is bounded by the geometric-series limit ``1 / (1 - decay)``,
        so after ``W`` quiet epochs the residual heat is at most
        ``decay**W / (1 - decay)``; the smallest ``W`` pushing that below
        the hot threshold bounds the estimator's memory of past activity.
        """
        max_heat = 1.0 / (1.0 - self.decay)
        if max_heat < self.hot_threshold:
            return 0
        return (
            math.floor(math.log(self.hot_threshold / max_heat, self.decay))
            + 1
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def heat_of(self, table: PageTable, vpn: int) -> float:
        """Current (decayed) heat of ``vpn`` in ``table``."""
        entry = self._heat.get(table, {}).get(vpn)
        if entry is None:
            return 0.0
        h, last = entry
        return h * self.decay ** (self._epoch - last)

    def hot_vpns(self, table: PageTable) -> Tuple[int, ...]:
        """Sorted vpns whose heat is at or above the hot threshold."""
        heat = self._heat.get(table, {})
        now = self._epoch
        return tuple(
            sorted(
                vpn
                for vpn, (h, last) in heat.items()
                if h * self.decay ** (now - last) >= self.hot_threshold
            )
        )

    def hot_count_in_range(
        self, table: PageTable, start_vpn: int, stop_vpn: int
    ) -> int:
        """Number of hot vpns of ``table`` in ``[start_vpn, stop_vpn)``.

        The khugepaged-style collapse policy scores candidate huge-block
        ranges with this: one histogram sweep per range, no sorted
        materialisation of the full hot set.
        """
        heat = self._heat.get(table, {})
        now = self._epoch
        decay = self.decay
        threshold = self.hot_threshold
        return sum(
            1
            for vpn, (h, last) in heat.items()
            if start_vpn <= vpn < stop_vpn
            and h * decay ** (now - last) >= threshold
        )

    def cold_vpns(self, table: PageTable) -> Tuple[int, ...]:
        """Sorted *mapped* vpns of ``table`` that are not hot.

        Pages never dirtied while tracked are cold by definition, so this
        enumerates the table's current mapping, not just the histogram.
        """
        hot = set(self.hot_vpns(table))
        return tuple(
            vpn for vpn in table.mapped_vpns().tolist() if vpn not in hot
        )

    def wss_bytes(self, table: Optional[PageTable] = None) -> int:
        """Estimated working-set size in bytes.

        With ``table`` given, the estimate for that table alone; otherwise
        the sum over every tracked table.
        """
        if table is not None:
            return len(self.hot_vpns(table)) * self.page_size
        return sum(len(self.hot_vpns(t)) * self.page_size for t in self._tables)

    def __repr__(self) -> str:
        return (
            f"WorkingSetEstimator(epoch={self._epoch}, "
            f"tables={len(self._tables)}, decay={self.decay}, "
            f"hot_threshold={self.hot_threshold})"
        )
