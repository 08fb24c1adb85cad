"""KVM: a process-VM hypervisor.

Each guest VM is a process of the host OS (QEMU).  Guest physical memory is
a range of the VM process's virtual address space; the mapping from guest
frame numbers (gfn) to host virtual pages is kept in **memory slots**, which
live — as in real KVM — in the ``private_data`` of the ``kvm-vm`` device
file the VM process opened.  The paper's measurement tooling retrieves the
slots from there via a host kernel module (§II.B.2); our simulated
:class:`KvmVmDevice` reproduces that interface so the analysis pipeline in
:mod:`repro.core.dump` can do the same.

Three translation layers therefore exist, and all three are walked by the
analyzer:

1. guest process page tables: guest vpn → gfn (owned by the guest OS);
2. memslots: gfn → host vpn of the QEMU process;
3. host page tables: host vpn → host physical frame (rewritten by KSM).

QEMU itself also uses memory that is *not* guest memory (device emulation
buffers, its own heap); the paper accounts those pages "as the pages used
by the guest VM itself" and so do we (``vm_overhead_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hypervisor.base import GuestVmBase, HypervisorHost
from repro.ksm.scanner import KsmConfig, KsmScanner
from repro.mem.address_space import PageTable, first_outside, int64_column
from repro.mem.physmem import HostPhysicalMemory
from repro.sim.clock import SimClock
from repro.sim.rng import RngFactory, mix64_many, stable_hash64
from repro.units import DEFAULT_PAGE_SIZE, pages_for

#: Host-virtual stride between the guest-memory regions of successive VM
#: processes (in pages).  Large enough that no realistic guest overlaps.
_VM_REGION_STRIDE_PAGES = 1 << 30


@dataclass(frozen=True)
class MemSlot:
    """One KVM memory slot: an affine gfn → host-vpn mapping."""

    base_gfn: int
    npages: int
    host_base_vpn: int

    def contains(self, gfn: int) -> bool:
        return self.base_gfn <= gfn < self.base_gfn + self.npages

    def to_host_vpn(self, gfn: int) -> int:
        if not self.contains(gfn):
            raise ValueError(f"gfn {gfn:#x} is outside slot {self}")
        return self.host_base_vpn + (gfn - self.base_gfn)


def memslot_columns(slots) -> "tuple[list, list, list]":
    """Bulk memslot export: ``(base_gfns, npages, host_base_vpns)``.

    The columnar dump pipeline consumes the slot array as three parallel
    columns (one interval table instead of a per-gfn slot walk); keeping
    the flattening next to :class:`MemSlot` means a future slot-layout
    change only has one exporter to update.  Order follows the slot
    array, as the paper's kernel module reports it.
    """
    base_gfns: list = []
    npages: list = []
    host_base_vpns: list = []
    for slot in slots:
        base_gfns.append(slot.base_gfn)
        npages.append(slot.npages)
        host_base_vpns.append(slot.host_base_vpn)
    return base_gfns, npages, host_base_vpns


class KvmVmDevice:
    """The per-VM ``kvm-vm`` device file.

    ``private_data`` holds the internal KVM state, including the memslot
    array — which is exactly what the paper's host kernel module reads.
    """

    def __init__(self, vm_name: str) -> None:
        self.vm_name = vm_name
        self.private_data: Dict[str, object] = {"memslots": []}

    @property
    def memslots(self) -> List[MemSlot]:
        return list(self.private_data["memslots"])  # type: ignore[arg-type]

    def add_memslot(self, slot: MemSlot) -> None:
        slots: List[MemSlot] = self.private_data["memslots"]  # type: ignore[assignment]
        slots.append(slot)

    def translate_gfn(self, gfn: int) -> Optional[int]:
        """gfn → host vpn via the slot array (None when unmapped)."""
        for slot in self.memslots:
            if slot.contains(gfn):
                return slot.to_host_vpn(gfn)
        return None


class KvmGuestVm(GuestVmBase):
    """A guest VM, i.e. a QEMU process on the host."""

    def __init__(
        self,
        host: "KvmHost",
        name: str,
        guest_memory_bytes: int,
        index: int,
        rng: RngFactory,
    ) -> None:
        self.host = host
        self.name = name
        self.guest_memory_bytes = guest_memory_bytes
        self.index = index
        self.rng = rng
        self.page_table = PageTable(f"host:qemu-{name}")
        self.device = KvmVmDevice(name)
        npages = pages_for(guest_memory_bytes, host.page_size)
        self._guest_npages = npages
        host_base = (index + 1) * _VM_REGION_STRIDE_PAGES
        self._slot = MemSlot(0, npages, host_base)
        self.device.add_memslot(self._slot)
        # QEMU's own (non-guest) memory lives above the guest region.
        self._overhead_base_vpn = host_base + npages + 4096
        self._overhead_pages = 0

    # ------------------------------------------------------------------
    # Guest memory access (used by the guest OS layer)
    # ------------------------------------------------------------------

    @property
    def guest_npages(self) -> int:
        return self._guest_npages

    @property
    def guest_host_base_vpn(self) -> int:
        """First host vpn of the guest-memory region.

        The region is a single affine memslot whose base is a multiple
        of ``_VM_REGION_STRIDE_PAGES`` (2**30), so gfn alignment and
        host-vpn alignment coincide for any power-of-two huge-block
        size up to the stride — the THP manager relies on this.
        """
        return self._slot.host_base_vpn

    def _host_vpn(self, gfn: int) -> int:
        if not 0 <= gfn < self._guest_npages:
            raise ValueError(
                f"{self.name}: gfn {gfn:#x} outside guest memory "
                f"({self._guest_npages} pages)"
            )
        return self._slot.to_host_vpn(gfn)

    def _fault_in_compressed(self, vpn: int) -> None:
        """Restore ``vpn`` from the compressed pool before an access.

        The decompress fault of paging-to-RAM: any touch of a compressed
        page first pays the restore (frame re-allocated, CPU cost charged
        to the store's stats) — otherwise a plain write would silently
        shadow the pooled copy and double-count the memory.
        """
        store = self.host.compression
        if store is not None and store.is_compressed(self.page_table, vpn):
            store.access_page(self.page_table, vpn)

    def write_gfns(self, gfns: Sequence[int], tokens: Sequence[int]) -> None:
        self._write_gfns(gfns, tokens, self.host.physmem.write_tokens)

    def write_gfns_filebacked(
        self, gfns: Sequence[int], tokens: Sequence[int]
    ) -> None:
        """Page-cache fills: go through Satori when the host enables it."""
        satori = self.host.satori
        self._write_gfns(
            gfns,
            tokens,
            self.host.physmem.write_tokens
            if satori is None
            else satori.fill_pages,
        )

    def _write_gfns(self, gfns, tokens, write) -> None:
        """Shift ``gfns`` onto the slot's host vpns and ``write`` them.

        The memslot is affine, so the whole range is one shift.  A page
        in the compressed pool is restored just before its own row, so
        the range is written in segments between restores; a gfn outside
        guest memory fails after the rows before it, as page by page.
        """
        gfns = int64_column(gfns)
        bad = first_outside(gfns, self._guest_npages)
        if bad is not None:
            self._write_gfns(gfns[:bad], tokens[:bad], write)
            self._host_vpn(int(gfns[bad]))  # raises
        vpns = gfns + (self._slot.host_base_vpn - self._slot.base_gfn)
        table = self.page_table
        start = 0
        store = self.host.compression
        if store is not None:
            for row in store.pooled_rows(table, vpns.tolist()):
                if row > start:
                    write(table, vpns[start:row], tokens[start:row])
                store.access_page(table, int(vpns[row]))
                start = row
        if start < len(vpns):
            write(table, vpns[start:], tokens[start:])

    def read_gfn(self, gfn: int) -> Optional[int]:
        vpn = self._host_vpn(gfn)
        self._fault_in_compressed(vpn)
        return self.host.physmem.read_token(self.page_table, vpn)

    def host_frame_of_gfn(self, gfn: int) -> Optional[int]:
        return self.page_table.translate(self._host_vpn(gfn))

    def release_gfn(self, gfn: int) -> None:
        """Discard the host backing of ``gfn`` (guest freed + ballooned)."""
        vpn = self._host_vpn(gfn)
        store = self.host.compression
        if store is not None and store.is_compressed(self.page_table, vpn):
            # A ballooned-out page needs no restore: drop the pooled copy.
            store.drop_page(self.page_table, vpn)
        if self.page_table.is_mapped(vpn):
            self.host.physmem.unmap(self.page_table, vpn)

    # ------------------------------------------------------------------
    # QEMU overhead (non-guest memory of the VM process)
    # ------------------------------------------------------------------

    def allocate_overhead(self, num_bytes: int, tag: str = "qemu") -> None:
        """Touch ``num_bytes`` of QEMU-private memory (device state, heap).

        Contents are process-private, so these pages never merge — matching
        the paper's small "guest VM" bars in Fig. 2.
        """
        stream = self.rng.stream("qemu-overhead", self.name, tag)
        key = stable_hash64("qemu", self.name, tag)
        npages = pages_for(num_bytes, self.host.page_size)
        pages = np.arange(self._overhead_pages, self._overhead_pages + npages)
        draws = [stream.getrandbits(32) for _ in range(npages)]
        self.host.physmem.write_tokens(
            self.page_table,
            pages + self._overhead_base_vpn,
            mix64_many(key, pages, draws),
        )
        self._overhead_pages += npages

    @property
    def vm_overhead_bytes(self) -> int:
        return self._overhead_pages * self.host.page_size

    def guest_memory_host_vpns(self):
        """Iterate host vpns of currently backed guest-memory pages."""
        vpns = self.page_table.mapped_vpns()
        base = self._slot.host_base_vpn
        yield from vpns[
            (base <= vpns) & (vpns < base + self._guest_npages)
        ].tolist()

    def resident_bytes(self) -> int:
        """Host-mapped bytes of the whole VM process (guest + overhead)."""
        return len(self.page_table) * self.host.page_size

    def __repr__(self) -> str:
        return (
            f"KvmGuestVm({self.name!r}, "
            f"guest={self.guest_memory_bytes >> 20} MiB)"
        )


class KvmHost(HypervisorHost):
    """A physical host running the KVM hypervisor and the KSM scanner."""

    def __init__(
        self,
        ram_bytes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        ksm_config: Optional[KsmConfig] = None,
        seed: int = 20130421,  # ISPASS 2013 started April 21
        host_kernel_bytes: int = 0,
    ) -> None:
        self.page_size = page_size
        self.clock = SimClock()
        self.rng = RngFactory(seed)
        self.physmem = HostPhysicalMemory(ram_bytes, page_size)
        self.ksm = KsmScanner(self.physmem, self.clock, ksm_config)
        #: Optional Satori-style sharing-aware block device (§VI).
        self.satori = None
        #: Optional compressed-RAM store; when attached, guest accesses to
        #: compressed pages fault through it (see ``_fault_in_compressed``).
        self.compression = None
        self._guests: List[KvmGuestVm] = []
        self._host_kernel_table = PageTable("host:kernel")
        self._host_kernel_bytes = 0
        if host_kernel_bytes:
            self.allocate_host_kernel(host_kernel_bytes)

    # ------------------------------------------------------------------

    def enable_satori(self):
        """Turn on the sharing-aware block device for page-cache fills."""
        from repro.hypervisor.satori import SatoriRegistry

        if self.satori is None:
            self.satori = SatoriRegistry(self.physmem)
        return self.satori

    def enable_compression(self):
        """Attach a compressed-RAM store for cold guest pages (§VI)."""
        from repro.mem.compression import CompressedRamStore

        if self.compression is None:
            self.compression = CompressedRamStore(self.physmem)
        return self.compression

    def allocate_host_kernel(self, num_bytes: int) -> None:
        """Touch host-kernel memory (never a KSM candidate)."""
        stream = self.rng.stream("host-kernel")
        key = stable_hash64("host-kernel")
        start = pages_for(self._host_kernel_bytes, self.page_size)
        npages = pages_for(num_bytes, self.page_size)
        vpns = np.arange(start, start + npages)
        draws = [stream.getrandbits(32) for _ in range(npages)]
        self.physmem.write_tokens(
            self._host_kernel_table, vpns, mix64_many(key, vpns, draws)
        )
        self._host_kernel_bytes += num_bytes

    @property
    def host_kernel_bytes(self) -> int:
        return self._host_kernel_bytes

    def create_guest(self, name: str, guest_memory_bytes: int) -> KvmGuestVm:
        """Create a guest VM process and register its memory with KSM.

        QEMU madvises the whole guest-memory range MERGEABLE, which is why
        KSM can merge pages *across* guest VMs.
        """
        if any(guest.name == name for guest in self._guests):
            raise ValueError(f"guest {name!r} already exists")
        vm = KvmGuestVm(
            self,
            name,
            guest_memory_bytes,
            index=len(self._guests),
            rng=self.rng.derive("vm", name),
        )
        self._guests.append(vm)
        self.ksm.register(vm.page_table)
        return vm

    def destroy_guest(self, vm: KvmGuestVm) -> None:
        """Tear down a guest VM and release all of its host memory."""
        if vm not in self._guests:
            raise ValueError(f"guest {vm.name!r} is not on this host")
        self.ksm.unregister(vm.page_table)
        for vpn in vm.page_table.mapped_vpns().tolist():
            self.physmem.unmap(vm.page_table, vpn)
        self._guests.remove(vm)

    # ------------------------------------------------------------------

    @property
    def guests(self) -> List[KvmGuestVm]:
        return list(self._guests)

    def guest(self, name: str) -> KvmGuestVm:
        for vm in self._guests:
            if vm.name == name:
                return vm
        raise KeyError(f"no guest named {name!r}")

    def total_physical_usage_bytes(self) -> int:
        return self.physmem.bytes_in_use

    def __repr__(self) -> str:
        return (
            f"KvmHost(ram={self.physmem.capacity_bytes >> 20} MiB, "
            f"guests={len(self._guests)})"
        )
