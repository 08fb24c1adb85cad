"""khugepaged-style transparent-huge-page management for one guest.

The paper measures sharing at 4 KiB only; FHPM and the
segmentation-beats-paging work (PAPERS.md) show the interesting modern
trade-off lives at the 2 MiB granularity: huge mappings buy TLB reach
but hide shareable 4 KiB subpages from KSM.  :class:`ThpManager` models
the guest side of that tension on top of the
:class:`~repro.mem.physmem.HostPhysicalMemory` huge-block overlay:

* **collapse** — group an aligned, fully-mapped, exclusive run of the
  VM's guest-memory host vpns into one huge block
  (:meth:`HostPhysicalMemory.form_block`).  Policy ``"always"`` probes
  every aligned range each tick; ``"khugepaged"`` collapses only ranges
  that are *hot* per a working-set histogram fed by the PML-style dirty
  log (collapse-on-dirty), like the real khugepaged only promotes
  actively-used ranges.
* **split-on-KSM-merge** — performed by the scanner, not here: when
  the KSM scanner decides to merge a subpage it calls
  ``physmem.split_block_of`` first, so sharing always wins over the
  huge mapping (madvise-mergeable beats THP, as on Linux).  Because a
  block is a pure grouping overlay (member frames keep their 4 KiB
  tokens), the post-split merge yields byte-identical savings to the
  never-huge world.

Collapse eligibility re-checks exclusivity: a range containing a
KSM-stable or shared frame is never collapsed, so a collapse can never
absorb a merged page (one of the huge-block validation invariants).

Everything is deterministic — ranges are probed in ascending address
order and the histogram epoch advances exactly once per
:meth:`tick` — so serial and parallel experiment fan-outs stay
bit-identical.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.config import HugePageSettings
from repro.mem.workingset import WorkingSetEstimator

if TYPE_CHECKING:
    from repro.hypervisor.kvm import KvmGuestVm

__all__ = ["ThpManager"]

#: khugepaged collapses a range once at least this fraction of its
#: pages is hot in the working-set histogram.
COLLAPSE_HOT_FRACTION = 0.5


class ThpManager:
    """Huge-page policy engine for one VM's guest-memory region."""

    def __init__(self, vm: "KvmGuestVm", settings: HugePageSettings) -> None:
        if not settings.enabled:
            raise ValueError("ThpManager requires an enabled THP policy")
        self.vm = vm
        self.settings = settings
        self.physmem = vm.host.physmem
        self.table = vm.page_table
        base = vm.guest_host_base_vpn
        if base % settings.block_pages:
            raise ValueError(
                f"{vm.name}: guest region base {base:#x} is not aligned "
                f"to {settings.block_pages} pages"
            )
        self._base_vpn = base
        #: Number of candidate aligned ranges (partial tail excluded:
        #: a huge mapping must be fully backed).
        self._nranges = vm.guest_npages // settings.block_pages
        #: range index -> block id of the last collapse there.
        self._range_blocks: Dict[int, int] = {}
        self._collapses = 0
        self._estimator = None
        if settings.policy == "khugepaged":
            self._estimator = WorkingSetEstimator(vm.host.page_size)
            self._estimator.track(self.table)

    # ------------------------------------------------------------------
    # Policy ticks
    # ------------------------------------------------------------------

    def tick(self) -> int:
        """Run one collapse pass; returns the number of new blocks."""
        if self.settings.policy == "khugepaged":
            self._estimator.advance_epoch()
        collapsed = 0
        npages = self.settings.block_pages
        for index in range(self._nranges):
            bid = self._range_blocks.get(index)
            if bid is not None and self.physmem.block_intact(bid):
                continue
            base = self._base_vpn + index * npages
            if not self._range_eligible(base, npages):
                continue
            new_bid = self.physmem.form_block(self.table, base, npages)
            if new_bid is not None:
                self._range_blocks[index] = new_bid
                self._collapses += 1
                collapsed += 1
        return collapsed

    def _range_eligible(self, base: int, npages: int) -> bool:
        if self.settings.policy == "always":
            return True
        hot = self._estimator.hot_count_in_range(
            self.table, base, base + npages
        )
        return hot >= COLLAPSE_HOT_FRACTION * npages

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------

    @property
    def collapses(self) -> int:
        """Huge-block collapses performed by this manager since boot."""
        return self._collapses

    @property
    def intact_blocks(self) -> int:
        """This VM's blocks still intact (not yet split)."""
        return sum(
            1
            for bid in self._range_blocks.values()
            if self.physmem.block_intact(bid)
        )

    @property
    def huge_backed_pages(self) -> int:
        return self.intact_blocks * self.settings.block_pages

    def __repr__(self) -> str:
        return (
            f"ThpManager(vm={self.vm.name!r}, "
            f"policy={self.settings.policy!r}, "
            f"intact={self.intact_blocks}/{self._nranges})"
        )
