"""PowerVM: a system-VM hypervisor with page deduplication.

PowerVM is the paper's second platform (§V.B): a firmware hypervisor in the
system-VM style of Fig. 1(a) — address translation has only two layers
(guest OS page tables, hypervisor page table), and the hypervisor shares
identical pages of guests in a shared memory pool (Active Memory Sharing /
Power Systems Memory Deduplication).

Two differences from the KVM model matter for the reproduction:

* Each guest's physical memory maps **directly** to host frames; there is
  no VM process in between.
* The paper's tooling on AIX cannot produce fine-grained breakdowns; only
  the hypervisor's monitoring feature is available, reporting total
  physical usage before and after the dedup scanner finishes.  We expose
  exactly that coarse :meth:`PowerVmHost.monitor_total_usage_bytes` API.

The dedup engine here is deliberately a different implementation from KSM:
a batch scanner that converges in one call (the paper measures "after
finishing page sharing", not the time axis).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypervisor.base import GuestVmBase, HypervisorHost
from repro.mem.address_space import PageTable, first_outside, int64_column
from repro.mem.physmem import HostPhysicalMemory
from repro.sim.clock import SimClock
from repro.sim.rng import RngFactory
from repro.units import DEFAULT_PAGE_SIZE, pages_for


class PowerVmGuest(GuestVmBase):
    """An LPAR (logical partition): guest memory maps straight to frames."""

    def __init__(
        self,
        host: "PowerVmHost",
        name: str,
        guest_memory_bytes: int,
        dedicated_memory: bool = False,
    ) -> None:
        self.host = host
        self.name = name
        self.guest_memory_bytes = guest_memory_bytes
        #: LPARs configured with dedicated physical memory are excluded
        #: from page sharing (§V.B cites this PowerVM behaviour).
        self.dedicated_memory = dedicated_memory
        self.page_table = PageTable(f"powervm:{name}")
        self._guest_npages = pages_for(guest_memory_bytes, host.page_size)

    @property
    def guest_npages(self) -> int:
        return self._guest_npages

    def _check_gfn(self, gfn: int) -> None:
        if not 0 <= gfn < self._guest_npages:
            raise ValueError(
                f"{self.name}: gfn {gfn:#x} outside guest memory"
            )

    def write_gfns(self, gfns: Sequence[int], tokens: Sequence[int]) -> None:
        gfns = int64_column(gfns)
        bad = first_outside(gfns, self._guest_npages)
        if bad is not None:
            self.write_gfns(gfns[:bad], tokens[:bad])
            self._check_gfn(int(gfns[bad]))  # raises
        self.host.physmem.write_tokens(self.page_table, gfns, tokens)

    def read_gfn(self, gfn: int) -> Optional[int]:
        self._check_gfn(gfn)
        return self.host.physmem.read_token(self.page_table, gfn)

    def host_frame_of_gfn(self, gfn: int) -> Optional[int]:
        self._check_gfn(gfn)
        return self.page_table.translate(gfn)

    def release_gfn(self, gfn: int) -> None:
        self._check_gfn(gfn)
        if self.page_table.is_mapped(gfn):
            self.host.physmem.unmap(self.page_table, gfn)

    def resident_bytes(self) -> int:
        return len(self.page_table) * self.host.page_size

    def __repr__(self) -> str:
        return (
            f"PowerVmGuest({self.name!r}, "
            f"guest={self.guest_memory_bytes >> 20} MiB)"
        )


class PowerVmHost(HypervisorHost):
    """A POWER machine running PowerVM with memory deduplication."""

    def __init__(
        self,
        ram_bytes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        seed: int = 20130421,
    ) -> None:
        self.page_size = page_size
        self.clock = SimClock()
        self.rng = RngFactory(seed)
        self.physmem = HostPhysicalMemory(ram_bytes, page_size)
        self._guests: List[PowerVmGuest] = []

    def create_guest(
        self,
        name: str,
        guest_memory_bytes: int,
        dedicated_memory: bool = False,
    ) -> PowerVmGuest:
        if any(guest.name == name for guest in self._guests):
            raise ValueError(f"guest {name!r} already exists")
        guest = PowerVmGuest(self, name, guest_memory_bytes, dedicated_memory)
        self._guests.append(guest)
        return guest

    @property
    def guests(self) -> List[PowerVmGuest]:
        return list(self._guests)

    def guest(self, name: str) -> PowerVmGuest:
        for lpar in self._guests:
            if lpar.name == name:
                return lpar
        raise KeyError(f"no guest named {name!r}")

    # ------------------------------------------------------------------
    # Page sharing
    # ------------------------------------------------------------------

    def run_page_sharing(self) -> int:
        """Deduplicate identical pages across all sharing-eligible LPARs.

        Batch convergence: groups every mapped page by content token and
        folds each group into a single stable frame.  Returns the number of
        pages merged in this call.  LPARs with dedicated physical memory do
        not participate.
        """
        by_token: Dict[int, List[Tuple[PageTable, int]]] = defaultdict(list)
        for guest in self._guests:
            if guest.dedicated_memory:
                continue
            for vpn, _fid in list(guest.page_table.entries()):
                token = self.physmem.read_token(guest.page_table, vpn)
                if token is None:
                    continue
                by_token[token].append((guest.page_table, vpn))
        merged = 0
        for token, mappings in by_token.items():
            if len(mappings) < 2:
                continue
            target_table, target_vpn = mappings[0]
            target_fid = target_table.translate(target_vpn)
            if target_fid is None:
                continue
            if self.physmem.token_of(target_fid) != token:
                continue  # rewritten since grouping
            self.physmem.mark_ksm_stable(target_fid)
            for table, vpn in mappings[1:]:
                fid = table.translate(vpn)
                if fid is None or fid == target_fid:
                    continue
                if self.physmem.token_of(fid) != token:
                    continue
                self.physmem.merge_into(table, vpn, target_fid)
                merged += 1
        return merged

    # ------------------------------------------------------------------
    # Monitoring (the only measurement interface on this platform)
    # ------------------------------------------------------------------

    def monitor_total_usage_bytes(self) -> int:
        """Total host physical memory in use, as PowerVM monitoring shows."""
        return self.physmem.bytes_in_use

    def total_physical_usage_bytes(self) -> int:
        return self.physmem.bytes_in_use

    def __repr__(self) -> str:
        return (
            f"PowerVmHost(ram={self.physmem.capacity_bytes >> 20} MiB, "
            f"guests={len(self._guests)})"
        )
