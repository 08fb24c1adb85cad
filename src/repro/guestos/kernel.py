"""The guest kernel: guest-physical frame management and kernel memory.

The kernel owns the guest-physical address space.  Every allocated gfn is
labelled with a :class:`PageOwner` saying *who* uses the page (kernel,
page cache, an anonymous process page, or free), which is the information
the paper's analyzer extracts from guest crash dumps ("memory management
information collected from the OS", §III.A).

The kernel's own memory is split the way the paper's Fig. 2 discussion
needs: a portion that is byte-identical across guests booted from the same
base image (kernel text, read-only data, page cache of clean base-image
files — about half of the 219 MB kernel area merges across VMs) and a
per-guest private portion (slabs, buffers, dirty data).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING,
)

import numpy as np

from repro.guestos.pagecache import BackingFile, PageCache
from repro.hypervisor.base import GuestVmBase
from repro.sim.rng import RngFactory, mix64_many, stable_hash64
from repro.units import MiB, pages_for

if TYPE_CHECKING:
    from repro.guestos.process import GuestProcess


class OwnerKind(enum.Enum):
    """Who a guest-physical page belongs to."""

    KERNEL = "kernel"
    PAGE_CACHE = "page_cache"
    PROCESS_ANON = "process_anon"
    FREE = "free"


@dataclass(frozen=True)
class PageOwner:
    """Ownership record for one gfn.

    Immutable, so one record can label every gfn of an ownership class
    (see :meth:`GuestKernel.owner_record`).
    """

    kind: OwnerKind
    pid: Optional[int] = None  # for PROCESS_ANON
    tag: str = ""  # component/category label or file id


@dataclass
class KernelProfile:
    """Sizes of the kernel-memory constituents.

    ``code_bytes`` and ``shared_pagecache_bytes`` are identical across
    guests booted from the same image (``image_id``); the rest is private.
    Defaults are calibrated to the paper's Fig. 2: 219 MB kernel area per
    guest of which ≈106 MB (≈50 %) merges across identical guests.
    """

    image_id: str = "rhel5.5-base"
    code_bytes: int = 10 * MiB
    shared_pagecache_bytes: int = 96 * MiB
    private_data_bytes: int = 77 * MiB
    buffers_bytes: int = 36 * MiB

    @property
    def total_bytes(self) -> int:
        return (
            self.code_bytes
            + self.shared_pagecache_bytes
            + self.private_data_bytes
            + self.buffers_bytes
        )


class OutOfGuestMemoryError(Exception):
    """The guest has no free guest-physical pages left.

    ``gfns`` lists what a bulk allocation got before memory ran out
    (:meth:`GuestKernel.alloc_gfns`): those pages are allocated and
    owned, so the caller can write them as one-page calls would have.
    """

    def __init__(self, message: str, gfns: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.gfns = gfns


class GuestKernel:
    """Guest OS kernel for one VM (KVM guest or PowerVM LPAR)."""

    def __init__(
        self,
        vm: GuestVmBase,
        rng: RngFactory,
        debug_kernel: bool = True,
        pid_base: Optional[int] = None,
    ) -> None:
        self.vm = vm
        self.rng = rng
        #: The paper needs debug kernels so crash(8) can analyse the dumps;
        #: the dump collector refuses non-debug kernels the same way.
        self.debug_kernel = debug_kernel
        self.page_size = vm.host.page_size if hasattr(vm, "host") else None
        if self.page_size is None:
            raise ValueError("guest VM must expose host.page_size")
        self._npages = pages_for(vm.guest_memory_bytes, self.page_size)
        self._next_gfn = 0
        self._free_gfns: List[int] = []
        # The owner map: per gfn an index into ``_records`` (-1 for a
        # gfn never allocated).  Records are interned by value.
        self._owners = np.full(self._npages, -1, np.int32)
        self._records: List[PageOwner] = []
        self._record_ids: Dict[PageOwner, int] = {}
        self._owner_records: Dict[tuple, PageOwner] = {}
        self.page_cache = PageCache(self)
        self._processes: Dict[int, "GuestProcess"] = {}
        if pid_base is None:
            pid_base = 300 + rng.stream("pid-base").randrange(0, 2000)
        self._next_pid = pid_base
        self._kernel_pages: Dict[str, Sequence[int]] = {}
        self._booted = False
        # Deflate-on-OOM hook (virtio-balloon's F_DEFLATE_ON_OOM): called
        # when the allocator runs dry; returns True if it freed pages.
        self._oom_handler: Optional[Callable[[], bool]] = None
        #: Transparent-huge-page manager; None until :meth:`enable_thp`.
        self.thp = None

    # ------------------------------------------------------------------
    # Guest-physical allocation
    # ------------------------------------------------------------------

    @property
    def total_pages(self) -> int:
        return self._npages

    @property
    def free_pages(self) -> int:
        """Guest-physical pages allocatable right now without reclaim."""
        return len(self._free_gfns) + (self._npages - self._next_gfn)

    def set_oom_handler(self, handler: Optional[Callable[[], bool]]) -> None:
        """Install a last-resort reclaimer for allocation failures.

        The balloon driver registers its deflate path here (virtio's
        deflate-on-OOM): when the allocator runs dry the handler may
        return pages to the free list and return True to retry.
        """
        self._oom_handler = handler

    def owner_record(
        self, kind: OwnerKind, pid: Optional[int] = None, tag: str = ""
    ) -> PageOwner:
        """The one :class:`PageOwner` this kernel uses for (kind, pid, tag).

        A guest's pages fall into a handful of ownership classes, so
        interning at allocation keeps one record per class instead of
        one per page fault.
        """
        key = (kind, pid, tag)
        record = self._owner_records.get(key)
        if record is None:
            record = self._owner_records[key] = PageOwner(kind, pid, tag)
        return record

    def record_id(self, owner: PageOwner) -> int:
        """The owner map's index of ``owner``, interned by value."""
        index = self._record_ids.get(owner)
        if index is None:
            index = self._record_ids[owner] = len(self._records)
            self._records.append(owner)
        return index

    def alloc_gfn(self, owner: PageOwner) -> int:
        """Allocate one guest-physical page and record its owner."""
        return int(self.alloc_gfns(owner, 1)[0])

    def alloc_gfns(self, owner: PageOwner, count: int) -> np.ndarray:
        """Allocate ``count`` guest-physical pages for ``owner``, in order.

        Pages come from the free list first, most recently freed first,
        then from the never-used top; the OOM handler runs whenever both
        are empty.  The gfns (an int64 array) and their order are those
        of ``count`` one-page allocations.  When memory runs out,
        :class:`OutOfGuestMemoryError` carries the gfns allocated so far.
        """
        gfns = np.empty(count, np.int64)
        got = 0
        free = self._free_gfns
        owner_id = self.record_id(owner)
        while got < count:
            if not free and self._next_gfn >= self._npages:
                if self._oom_handler is None or not self._oom_handler() or (
                    not free and self._next_gfn >= self._npages
                ):
                    raise OutOfGuestMemoryError(
                        f"{self.vm.name}: guest memory exhausted "
                        f"({self._npages} pages)",
                        gfns[:got],
                    )
            if free:
                take = min(count - got, len(free))
                gfns[got:got + take] = free[: -take - 1 : -1]
                del free[-take:]
            else:
                start = self._next_gfn
                take = min(count - got, self._npages - start)
                gfns[got:got + take] = np.arange(start, start + take)
                self._next_gfn += take
            self._owners[gfns[got:got + take]] = owner_id
            got += take
        return gfns

    def free_gfn(self, gfn: int) -> None:
        """Return a gfn to the free list.

        The host backing is *not* released (no ballooning): the stale
        content keeps occupying a host frame, exactly as on real KVM.
        """
        owner = self.owner_of(gfn)
        if owner is None or owner.kind is OwnerKind.FREE:
            raise ValueError(f"gfn {gfn:#x} is not allocated")
        self._owners[gfn] = self.record_id(self.owner_record(OwnerKind.FREE))
        self._free_gfns.append(gfn)

    def owner_of(self, gfn: int) -> Optional[PageOwner]:
        if not 0 <= gfn < self._npages:
            return None
        index = self._owners[gfn]
        return None if index < 0 else self._records[index]

    def allocated_pages(self) -> int:
        # A never-allocated gfn (index -1) reads the trailing True.
        free = [record.kind is OwnerKind.FREE for record in self._records]
        return int(np.count_nonzero(~np.array(free + [True])[self._owners]))

    def owner_columns(self) -> Tuple[np.ndarray, np.ndarray, List[PageOwner]]:
        """The gfn-ownership map as columns (collected into guest dumps).

        Returns ``(gfns, ids, records)``: the allocated gfns, ascending
        (int64), per gfn an int32 index into ``records``, and the
        records, one per distinct value.
        """
        gfns = np.flatnonzero(self._owners >= 0)
        return gfns, self._owners[gfns], list(self._records)

    # ------------------------------------------------------------------
    # Kernel memory
    # ------------------------------------------------------------------

    def boot(self, profile: Optional[KernelProfile] = None) -> None:
        """Bring up the kernel: touch its code, data, caches and buffers."""
        if self._booted:
            raise RuntimeError(f"{self.vm.name}: kernel already booted")
        profile = profile or KernelProfile()
        self.profile = profile
        # Kernel text + read-only data: identical across guests running the
        # same image.
        self._touch_kernel_area(
            "code",
            profile.code_bytes,
            stable_hash64("kimage", profile.image_id, "text"),
        )
        # Page cache of clean base-image files: identical across guests,
        # and — going through the real page cache — evictable under
        # memory pressure (the reclaim a balloon driver triggers).
        boot_files = BackingFile(
            f"{profile.image_id}:bootfs",
            profile.shared_pagecache_bytes,
            self.page_size,
        )
        self._kernel_pages["pagecache"] = self.page_cache.page_gfns(
            boot_files, range(boot_files.npages)
        )
        # Private, per-guest kernel data (slabs, task structs, dirty pages).
        self._touch_kernel_area(
            "data",
            profile.private_data_bytes,
            stable_hash64("kdata", self.vm.name),
            self.rng.stream("kernel-private", self.vm.name),
        )
        self._touch_kernel_area(
            "buffers",
            profile.buffers_bytes,
            stable_hash64("kbuf", self.vm.name),
            self.rng.stream("kernel-buffers", self.vm.name),
        )
        self._booted = True

    def _touch_kernel_area(
        self, tag: str, num_bytes: int, key: int, stream=None
    ) -> None:
        """Allocate and write a kernel area: page ``i`` holds
        ``mix64(key, i)``, or ``mix64(key, i, draw)`` with one 32-bit
        draw of ``stream`` per page, in page order."""
        owner = self.owner_record(OwnerKind.KERNEL, tag=f"kernel:{tag}")
        # A guest too small for its kernel fails to boot here.
        gfns = self.alloc_gfns(owner, pages_for(num_bytes, self.page_size))
        values = [range(len(gfns))]
        if stream is not None:
            values.append([stream.getrandbits(32) for _ in range(len(gfns))])
        self.vm.write_gfns(gfns, mix64_many(key, *values))
        self._kernel_pages[tag] = gfns

    def kernel_area_pages(self, tag: str) -> List[int]:
        return np.asarray(self._kernel_pages.get(tag, []), np.int64).tolist()

    def kernel_resident_bytes(self) -> int:
        """Kernel-owned memory including buffers and caches (Fig. 2 bar).

        Combines the boot-time kernel areas with all page-cache pages (the
        boot-image cache plus pages pulled in by process file access).
        """
        boot_pages = sum(
            len(gfns)
            for tag, gfns in self._kernel_pages.items()
            if tag != "pagecache"  # lives in the page cache, counted below
        )
        return (boot_pages + self.page_cache.cached_pages) * self.page_size

    # ------------------------------------------------------------------
    # Transparent huge pages
    # ------------------------------------------------------------------

    def enable_thp(self, settings) -> None:
        """Attach a :class:`~repro.guestos.thp.ThpManager` to this guest.

        ``settings`` is a :class:`repro.config.HugePageSettings`; a
        ``"never"`` policy leaves THP off (matching
        ``transparent_hugepage=never`` on the kernel command line).
        """
        from repro.guestos.thp import ThpManager

        if settings is None or not settings.enabled:
            self.thp = None
            return
        self.thp = ThpManager(self.vm, settings)

    def thp_tick(self) -> int:
        """Run one khugepaged pass; returns new collapses (0 if off)."""
        if self.thp is None:
            return 0
        return self.thp.tick()

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def spawn(self, name: str) -> "GuestProcess":
        """Create a user process; pids increase monotonically per guest."""
        from repro.guestos.process import GuestProcess

        pid = self._next_pid
        self._next_pid += 1
        process = GuestProcess(self, pid, name)
        self._processes[pid] = process
        return process

    def process(self, pid: int) -> "GuestProcess":
        return self._processes[pid]

    @property
    def processes(self) -> List["GuestProcess"]:
        return list(self._processes.values())

    def exit_process(self, process: "GuestProcess") -> None:
        """Terminate a process: unmap everything, free its anon pages."""
        process.release_all()
        self._processes.pop(process.pid, None)

    def __repr__(self) -> str:
        return (
            f"GuestKernel(vm={self.vm.name!r}, "
            f"allocated={self.allocated_pages()} pages)"
        )
