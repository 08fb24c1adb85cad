"""The tiering policy engine.

Every ``epoch_ticks`` workload ticks the engine closes a working-set
epoch and runs up to three actions on the hot/cold split, in a fixed,
deterministic order:

1. **KSM hints** — cold vpns go to
   :meth:`~repro.ksm.scanner.KsmScanner.hint_cold`, so the incremental
   scan policies examine exactly the pages most likely to pass the
   volatility filter (Cold Object Identification, PAPERS.md).
2. **Compression** — while the host is above its pressure line, cold
   pages are moved into the :class:`CompressedRamStore`, coldest guests
   first, bounded by a per-epoch page budget.  KSM-stable pages are
   skipped *without* consuming budget (they are already deduplicated).
3. **Ballooning** — while still above the pressure line, guests are
   ballooned proportionally to their *cold* bytes (weights to
   :meth:`BalloonManager.rebalance`), so guests with small working sets
   are squeezed hardest; a free-page headroom keeps allocating workloads
   from OOMing mid-tick.

All iteration is over ``host.guests`` in creation order and over sorted
vpn sets, so a tiering run is bit-identical however it is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import TieringSettings
from repro.guestos.kernel import GuestKernel
from repro.hypervisor.balloon import BalloonDriver, BalloonManager, BalloonPlan
from repro.hypervisor.kvm import KvmHost
from repro.mem.workingset import WorkingSetEstimator

__all__ = ["TieringEngine", "TieringAction", "TieringSummary"]

#: Guest-allocatable pages a balloon must leave behind.
BALLOON_MIN_FREE_PAGES = 64


@dataclass
class TieringAction:
    """What one tiering epoch did."""

    epoch: int
    wss_bytes: int = 0
    cold_pages_hinted: int = 0
    pages_compressed: int = 0
    compression_bytes_saved: int = 0
    balloon_reclaimed_bytes: int = 0
    balloon_plans: List[BalloonPlan] = field(default_factory=list)


@dataclass
class TieringSummary:
    """Cumulative engine counters for the run."""

    epochs: int = 0
    cold_pages_hinted: int = 0
    pages_compressed: int = 0
    compression_bytes_saved: int = 0
    balloon_reclaimed_bytes: int = 0
    final_wss_bytes: int = 0


class TieringEngine:
    """Drives working-set estimation and tiering actions on one host."""

    def __init__(
        self,
        host: KvmHost,
        kernels: Dict[str, GuestKernel],
        settings: TieringSettings,
    ) -> None:
        self.host = host
        self.settings = settings
        self.estimator = WorkingSetEstimator(
            host.page_size,
            decay=settings.decay,
            hot_threshold=settings.hot_threshold,
        )
        for vm in host.guests:
            self.estimator.track(vm.page_table)
        self.store = (
            host.enable_compression() if settings.compress_enabled else None
        )
        self.balloons: Optional[BalloonManager] = None
        if settings.balloon_enabled:
            self.balloons = BalloonManager(host)
            for vm in host.guests:
                kernel = kernels.get(vm.name)
                if kernel is not None:
                    self.balloons.attach(BalloonDriver(vm, kernel))
        self.actions: List[TieringAction] = []
        self._ticks = 0

    # ------------------------------------------------------------------

    def _deficit_bytes(self) -> int:
        """Bytes above the pressure line, the host's capacity (≤ 0
        means no pressure)."""
        physmem = self.host.physmem
        return physmem.bytes_in_use - physmem.capacity_bytes

    def tick(self) -> Optional[TieringAction]:
        """Account one workload tick; runs an epoch when one is due."""
        self._ticks += 1
        if self._ticks % self.settings.epoch_ticks != 0:
            return None
        return self.step()

    def step(self) -> TieringAction:
        """Close a working-set epoch and apply the enabled actions."""
        self.estimator.advance_epoch()
        action = TieringAction(epoch=self.estimator.epoch)

        cold_by_vm: List[Tuple[str, Tuple[int, ...]]] = []
        for vm in self.host.guests:
            cold = self.estimator.cold_vpns(vm.page_table)
            cold_by_vm.append((vm.name, cold))
            if self.settings.hints_enabled:
                action.cold_pages_hinted += self.host.ksm.hint_cold(
                    vm.page_table, cold
                )

        if self.store is not None:
            action.pages_compressed, action.compression_bytes_saved = (
                self._compress_cold(cold_by_vm)
            )

        if self.balloons is not None and self._deficit_bytes() > 0:
            page_size = self.host.page_size
            weights = {name: len(cold) * page_size for name, cold in cold_by_vm}
            plans = self.balloons.rebalance(
                weights=weights, min_free_pages=BALLOON_MIN_FREE_PAGES
            )
            action.balloon_plans = plans
            action.balloon_reclaimed_bytes = sum(
                plan.reclaimed_bytes for plan in plans
            )

        action.wss_bytes = self.estimator.wss_bytes()
        self.actions.append(action)
        return action

    def _compress_cold(
        self, cold_by_vm: List[Tuple[str, Tuple[int, ...]]]
    ) -> Tuple[int, int]:
        """Compress cold pages while over pressure; returns (pages, saved)."""
        assert self.store is not None
        budget = self.settings.compress_pages_per_epoch or None
        pages = 0
        saved = 0
        # Guests with the most cold memory are drained first (stable
        # tie-break on name keeps the order deterministic).
        order = sorted(cold_by_vm, key=lambda item: (-len(item[1]), item[0]))
        by_name = {vm.name: vm for vm in self.host.guests}
        for name, cold in order:
            table = by_name[name].page_table
            for vpn in cold:
                if budget is not None and pages >= budget:
                    return pages, saved
                if self._deficit_bytes() <= 0:
                    return pages, saved
                if not table.is_mapped(vpn):
                    continue  # unmapped (or already pooled) meanwhile
                got = self.store.compress_page(table, vpn)
                if self.store.is_compressed(table, vpn):
                    pages += 1
                    saved += got
        return pages, saved

    # ------------------------------------------------------------------

    def summary(self) -> TieringSummary:
        """Cumulative counters over every epoch run so far."""
        out = TieringSummary(epochs=len(self.actions))
        for action in self.actions:
            out.cold_pages_hinted += action.cold_pages_hinted
            out.pages_compressed += action.pages_compressed
            out.compression_bytes_saved += action.compression_bytes_saved
            out.balloon_reclaimed_bytes += action.balloon_reclaimed_bytes
        out.final_wss_bytes = self.estimator.wss_bytes()
        return out
