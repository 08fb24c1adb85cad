"""Ballooning: the alternative the paper contrasts with TPS (§VI).

Ballooning reduces host memory pressure by *dynamically shrinking* a
guest: a balloon driver inside the guest allocates guest-physical pages
and hands them back to the hypervisor, forcing the guest OS to reclaim
(drop page cache, etc.).  The paper notes two caveats that this model
reproduces:

* KVM ships no resource manager, so someone must decide each guest's
  balloon target — :class:`BalloonManager` is the simple proportional
  policy the paper says you would have to install separately;
* the guest can reclaim more intelligently than the host (it drops clean
  page cache instead of swapping), but unlike TPS the freed memory is
  *gone* from the guest: ballooning trades guest capacity for host space,
  while TPS gets the space for free as long as pages stay identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.guestos.kernel import GuestKernel, OwnerKind
from repro.hypervisor.kvm import KvmGuestVm, KvmHost


class BalloonDriver:
    """The virtio-balloon driver of one KVM guest."""

    #: Pages returned to the guest per deflate-on-OOM event.
    OOM_DEFLATE_PAGES = 64

    def __init__(self, vm: KvmGuestVm, kernel: GuestKernel) -> None:
        if kernel.vm is not vm:
            raise ValueError("kernel does not belong to this VM")
        self.vm = vm
        self.kernel = kernel
        self._balloon_gfns: List[int] = []
        self.oom_deflates = 0
        # virtio-balloon's F_DEFLATE_ON_OOM: a guest allocation that would
        # fail pops the balloon a little instead of OOM-killing the guest.
        kernel.set_oom_handler(self._deflate_on_oom)

    def _deflate_on_oom(self) -> bool:
        released = self.deflate(self.OOM_DEFLATE_PAGES * self.kernel.page_size)
        if released > 0:
            self.oom_deflates += 1
            return True
        return False

    @property
    def inflated_pages(self) -> int:
        return len(self._balloon_gfns)

    @property
    def inflated_bytes(self) -> int:
        return self.inflated_pages * self.kernel.page_size

    def inflate(self, num_bytes: int, min_free_pages: int = 0) -> int:
        """Grow the balloon by up to ``num_bytes``; returns bytes of host
        backing actually released.

        Pages come from the guest free list first; when that runs dry the
        guest drops clean (unmapped) page-cache pages — the smarter-than-
        the-host reclaim the paper credits to ballooning.  A ballooned
        page that was never host-backed (still untouched) shrinks the
        guest but gives the host nothing, so it does not count toward the
        return value.

        ``min_free_pages`` keeps that many guest pages allocatable: a
        workload that allocates between balloon adjustments (the JVM loads
        classes and JIT-compiles during ticks) would otherwise OOM inside
        a fully ballooned guest.
        """
        page_size = self.kernel.page_size
        wanted = num_bytes // page_size
        taken = 0
        released = 0
        while taken < wanted:
            gfn = self._take_free_gfn(min_free_pages)
            if gfn is None:
                evicted = self.kernel.page_cache.evict_unmapped(
                    wanted - taken
                )
                if not evicted:
                    break  # guest has nothing reclaimable left
                continue
            self._balloon_gfns.append(gfn)
            if self.vm.host_frame_of_gfn(gfn) is not None:
                released += 1
            self.vm.release_gfn(gfn)
            taken += 1
        return released * page_size

    def _take_free_gfn(self, min_free_pages: int = 0):
        from repro.guestos.kernel import OutOfGuestMemoryError

        if self.kernel.free_pages <= min_free_pages:
            return None
        try:
            return self.kernel.alloc_gfn(
                self.kernel.owner_record(OwnerKind.KERNEL, tag="balloon")
            )
        except OutOfGuestMemoryError:
            return None

    def deflate(self, num_bytes: int) -> int:
        """Shrink the balloon, returning pages to the guest free list."""
        page_size = self.kernel.page_size
        wanted = num_bytes // page_size
        released = 0
        while released < wanted and self._balloon_gfns:
            gfn = self._balloon_gfns.pop()
            self.kernel.free_gfn(gfn)
            released += 1
        return released * page_size


@dataclass
class BalloonPlan:
    """What the manager decided for one guest."""

    vm_name: str
    target_bytes: int
    reclaimed_bytes: int = 0


class BalloonManager:
    """A minimal host-side balloon policy.

    Distributes the host's memory deficit across guests proportionally to
    their guest-memory size — the kind of external manager the paper says
    KVM needs before ballooning is usable at all.
    """

    def __init__(self, host: KvmHost) -> None:
        self.host = host
        self._drivers: Dict[str, BalloonDriver] = {}

    def attach(self, driver: BalloonDriver) -> None:
        name = driver.vm.name
        if name in self._drivers:
            raise ValueError(f"guest {name!r} already has a balloon")
        self._drivers[name] = driver

    @property
    def drivers(self) -> Dict[str, BalloonDriver]:
        return dict(self._drivers)

    def rebalance(
        self,
        reserve_bytes: int = 0,
        max_rounds: int = 8,
        weights: Optional[Dict[str, int]] = None,
        min_free_pages: int = 0,
    ) -> List[BalloonPlan]:
        """Inflate balloons until host usage fits capacity − reserve.

        Runs in rounds: ballooned pages that were never host-backed give
        the host nothing, so the manager keeps asking until the deficit
        clears or the guests have nothing reclaimable left.  A guest
        whose balloon could not grow at all in a round is *exhausted* and
        is not asked again, so ``target_bytes`` is the true cumulative
        ask issued to each guest — not an estimate inflated by rounds
        that could no longer reach it.

        ``weights`` overrides the per-guest shares (default: guest memory
        size); the tiering engine passes cold-byte weights so guests with
        the smallest working sets are squeezed hardest.  When any round
        ran, plans for *all* guests are returned — including those asked
        but unable to reclaim anything (``reclaimed_bytes == 0``), which
        a caller needs to see to know the deficit is unresolvable.
        """
        plans: Dict[str, BalloonPlan] = {
            name: BalloonPlan(vm_name=name, target_bytes=0)
            for name in self._drivers
        }
        if not self._drivers:
            return []
        if weights is None:
            weights = {
                name: driver.vm.guest_memory_bytes
                for name, driver in self._drivers.items()
            }
        exhausted: set = set()
        rounds_ran = False
        for _ in range(max_rounds):
            deficit = (
                self.host.physmem.bytes_in_use
                - (self.host.physmem.capacity_bytes - reserve_bytes)
            )
            if deficit <= 0:
                break
            active = [
                name
                for name in sorted(self._drivers)
                if name not in exhausted and weights.get(name, 0) > 0
            ]
            total_weight = sum(weights[name] for name in active)
            if not active or total_weight <= 0:
                break
            rounds_ran = True
            progress = 0
            for name in active:
                driver = self._drivers[name]
                share = weights[name] / total_weight
                target = int(deficit * share) + self.host.page_size
                plan = plans[name]
                plan.target_bytes += target
                pages_before = driver.inflated_pages
                released = driver.inflate(target, min_free_pages)
                plan.reclaimed_bytes += released
                if driver.inflated_pages == pages_before:
                    exhausted.add(name)
                progress += released
            if progress == 0:
                break  # guests have nothing reclaimable left
        if not rounds_ran:
            return []
        return [plans[name] for name in sorted(plans)]
