"""Host memory pressure → paging penalty.

When the guests' combined resident demand exceeds host RAM, the KVM host
pages guest memory to disk and throughput collapses (the paper's Figs. 7–8
show the cliff, and its §I explains the mechanism).  The model:

* ``demand(N) = host_kernel + N * R - (N - 1) * S`` where ``R`` is one
  VM's mapped footprint and ``S`` the TPS saving of one non-primary VM —
  both *measured* from the page-level simulation, not assumed.  This is
  exactly the owner-oriented arithmetic the paper prefers: the saving of a
  non-primary VM reads directly as "the additional memory needed to run
  another VM".

* Each VM has a *cold* slice (reclaimable page cache, untouched tails,
  rarely-touched JVM pages) that the host can evict almost for free; only
  demand beyond ``capacity + cold`` — the **hot overcommit** — causes
  faults on the request path.

* The throughput penalty follows a smooth inverse law in the hot
  overcommit, ``penalty = 1 / (1 + (hot / tau)^p)``: the first megabytes
  of hot overcommit hurt a little, a few hundred collapse the system.
  ``tau`` and ``p`` are calibrated so the paper's DayTrader cliff lands
  where Fig. 7 puts it (healthy at 7 VMs, ≈17 req/s default vs ≈150
  preloaded at 8, both near zero at 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import HOST_KERNEL_BYTES
from repro.units import MiB


@dataclass
class PagingModel:
    """Host-level paging penalty model."""

    capacity_bytes: int
    host_kernel_bytes: int = HOST_KERNEL_BYTES
    #: Cold (cheaply evictable) bytes per VM, as a fraction of its guest
    #: memory: page cache the guest can lose plus cold anonymous pages.
    cold_fraction_of_guest: float = 0.086
    #: Penalty shape: hot overcommit at which throughput halves ...
    tau_bytes: int = 220 * MiB
    #: ... and how sharply it collapses beyond that.
    exponent: float = 2.0

    def demand_bytes(
        self,
        n_vms: int,
        per_vm_resident_bytes: float,
        per_nonprimary_saving_bytes: float,
    ) -> float:
        """Host physical demand of ``n_vms`` identical guests."""
        if n_vms < 1:
            raise ValueError("need at least one VM")
        return (
            self.host_kernel_bytes
            + n_vms * per_vm_resident_bytes
            - (n_vms - 1) * per_nonprimary_saving_bytes
        )

    def hot_overcommit_bytes(
        self, demand_bytes: float, n_vms: int, guest_memory_bytes: int
    ) -> float:
        """Demand that cannot be absorbed by RAM + cold-page eviction."""
        cold = n_vms * guest_memory_bytes * self.cold_fraction_of_guest
        return max(0.0, demand_bytes - self.capacity_bytes - cold)

    def penalty(
        self, demand_bytes: float, n_vms: int, guest_memory_bytes: int
    ) -> float:
        """Throughput multiplier in (0, 1]."""
        hot = self.hot_overcommit_bytes(demand_bytes, n_vms, guest_memory_bytes)
        if hot <= 0:
            return 1.0
        return 1.0 / (1.0 + (hot / self.tau_bytes) ** self.exponent)
