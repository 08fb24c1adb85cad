"""Common hypervisor interfaces.

The paper (§II.A, Fig. 1) distinguishes two hypervisor architectures:

* a **system VM** (Fig. 1a): address translation is handled by the
  hypervisor plus the guest OS — two layers (PowerVM);
* a **process VM** (Fig. 1b): each guest VM is a process of a host OS, so
  translation goes guest OS → VM process → host OS — three layers (KVM).

Both are implemented here; the analysis pipeline in :mod:`repro.core`
handles either, exactly as the paper claims its methodology does.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence


class GuestVmBase(abc.ABC):
    """What every guest VM must expose to guests and the analyzer."""

    name: str
    guest_memory_bytes: int

    @abc.abstractmethod
    def write_gfns(self, gfns: Sequence[int], tokens: Sequence[int]) -> None:
        """Write ``tokens[i]`` into guest physical page ``gfns[i]``, in
        order, with the effect of one :meth:`write_gfn` per page."""

    def write_gfn(self, gfn: int, token: int) -> None:
        """Write content ``token`` into guest physical page ``gfn``."""
        self.write_gfns([gfn], [token])

    def write_gfns_filebacked(
        self, gfns: Sequence[int], tokens: Sequence[int]
    ) -> None:
        """Page-cache fills from disk.

        Same effect as :meth:`write_gfns` by default; hypervisors with a
        sharing-aware block device (Satori) override this to share each
        destination page with an existing copy immediately.
        """
        self.write_gfns(gfns, tokens)

    @abc.abstractmethod
    def read_gfn(self, gfn: int) -> Optional[int]:
        """Read the content token of ``gfn`` (None when never touched)."""

    @abc.abstractmethod
    def host_frame_of_gfn(self, gfn: int) -> Optional[int]:
        """Host physical frame id backing ``gfn`` (None when untouched)."""


class HypervisorHost(abc.ABC):
    """A physical machine running a hypervisor."""

    @property
    @abc.abstractmethod
    def guests(self) -> List[GuestVmBase]:
        """All guest VMs on this host."""

    @abc.abstractmethod
    def total_physical_usage_bytes(self) -> int:
        """Host physical memory currently in use (after any sharing)."""
