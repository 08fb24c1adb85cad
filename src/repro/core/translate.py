"""Walking the translation layers of a system dump.

For a KVM (process-VM) host, resolving where a guest process page really
lives takes three steps (§II.B):

1. the guest process page table maps the guest virtual page to a guest
   physical frame number (gfn);
2. the VM's memslot array maps the gfn to a host virtual page of the QEMU
   process;
3. the host page table of that QEMU process maps the host virtual page to
   a host physical frame.

Any step may miss (demand paging); the resolution then reports where it
stopped, which the accounting uses to classify "not backed by host
physical memory".  These are single-page lookups over the dump's
columns; the whole-dump walk is the vectorized one of
:mod:`repro.core.columnar.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.dump import GuestDump, GuestProcessDump, SystemDump


@dataclass(frozen=True)
class Resolution:
    """Result of a three-layer walk for one guest-process page."""

    vpn: int
    gfn: Optional[int]
    host_vpn: Optional[int]
    frame_id: Optional[int]

    @property
    def backed(self) -> bool:
        return self.frame_id is not None


def qemu_table_name(vm_name: str) -> str:
    """Name of the QEMU process's page table in the host dump."""
    return f"host:qemu-{vm_name}"


def resolve_process_page(
    dump: SystemDump,
    guest: GuestDump,
    process: GuestProcessDump,
    vpn: int,
) -> Resolution:
    """Walk one page of one guest process through all three layers."""
    gfn = process.page_table.get(vpn)
    if gfn is None:
        return Resolution(vpn, None, None, None)
    host_vpn = guest.translate_gfn(gfn)
    if host_vpn is None:
        return Resolution(vpn, gfn, None, None)
    frame_id = dump.host.frame_of(qemu_table_name(guest.vm_name), host_vpn)
    return Resolution(vpn, gfn, host_vpn, frame_id)


def resolve_gfn(
    dump: SystemDump, guest: GuestDump, gfn: int
) -> Optional[int]:
    """Resolve a bare guest physical page to a host frame id."""
    host_vpn = guest.translate_gfn(gfn)
    if host_vpn is None:
        return None
    return dump.host.frame_of(qemu_table_name(guest.vm_name), host_vpn)
