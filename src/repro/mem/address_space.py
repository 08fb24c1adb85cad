"""Sparse page tables.

A :class:`PageTable` is a sparse mapping from virtual page number to a
physical page number.  It is used at every translation layer of the stack:

* guest process virtual page → guest physical frame number (gfn), managed
  by the guest OS;
* guest physical frame number → host virtual page of the VM process,
  managed by the hypervisor's memory slots (KVM) — this layer is an affine
  map and is represented separately by ``MemSlot`` in the hypervisor;
* host process virtual page → host physical frame id, managed by the host
  OS (this is the layer KSM rewrites when it merges pages).

Unmapped pages simply have no entry; the paper's methodology explicitly
handles pages "not mapped to host physical memory".

Each table can keep a **dirty-vpn log** — the software analogue of
Intel's Page-Modification Logging (PML): every event that can change the
content visible through a vpn (a fresh mapping, an in-place store, a
copy-on-write break, an unmap) appends the vpn to the log.  The KSM
scanner's ``INCREMENTAL`` policy drains the log instead of rescanning the
whole table, exactly the lever hardware-assisted dirty tracking provides.
The log is a vpn *set* (insertion-ordered, deduplicated), so its size is
bounded by the number of distinct pages touched since the last drain.

The log exists only while someone consumes it, as a hypervisor turns
PML on only for the VMs whose log it reads: a table logs while at least
one dirty sink is attached (the KSM scanner attaches one on
``register``, the working-set estimator on ``track``), and detaching
the last sink drops the log.  Guest process tables and the host
kernel's table have no sink, so they log nothing.

Range writers use the bulk forms (:meth:`PageTable.map_many`,
:meth:`PageTable.log_dirty_many`), which leave the table exactly as the
one-vpn calls would in the same order.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


def int_list(values) -> List[int]:
    """Python ints from a list, range or numpy array of page numbers."""
    return values.tolist() if hasattr(values, "tolist") else list(values)


def first_outside(values: Sequence[int], limit: int) -> Optional[int]:
    """Index of the first value outside ``[0, limit)``, or None.

    Bulk writers use it to fail where a one-page loop would: after the
    rows before the bad one.
    """
    if not len(values) or (0 <= min(values) and max(values) < limit):
        return None
    return next(
        row for row, value in enumerate(values) if not 0 <= value < limit
    )


class PageTable:
    """A sparse vpn → pfn mapping with a stable identity.

    ``name`` identifies the table in dumps and error messages, e.g.
    ``"host:qemu-vm1"`` or ``"vm1:pid42"``.
    """

    __slots__ = (
        "name",
        "_entries",
        "_dirty",
        "_version",
        "_remap_epoch",
        "_dirty_sinks",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: Dict[int, int] = {}
        # Dirty-vpn log (dict used as an insertion-ordered set) and a
        # mapping-set version, bumped whenever the *set* of mapped vpns
        # changes.  The scanner uses the version to reuse cached,
        # pre-sorted worklists across passes.
        self._dirty: Dict[int, None] = {}
        self._version = 0
        # Bumped on every remap (COW breaks, KSM merges) — together
        # with the version it keys the KSM scanner's cached
        # vpn→pfn columns: while neither moves, no translation result
        # can have changed.
        self._remap_epoch = 0
        # PML consumers (the KSM scanner, the working-set estimator):
        # each sink is a callable fed every dirty vpn, independently of
        # — and unaffected by — the scanner draining the primary log,
        # which is kept only while this list is non-empty.
        self._dirty_sinks: List[Callable[[int], None]] = []

    def map(self, vpn: int, pfn: int) -> None:
        """Install a translation; the slot must currently be empty."""
        if vpn in self._entries:
            raise ValueError(
                f"{self.name}: vpn {vpn:#x} is already mapped "
                f"(to pfn {self._entries[vpn]:#x})"
            )
        self._entries[vpn] = pfn
        self._version += 1
        self._note_dirty(vpn)

    def map_many(self, vpns: Sequence[int], pfns: Sequence[int]) -> None:
        """Bulk :meth:`map`: install ``vpns[i] -> pfns[i]`` in order."""
        entries = self._entries
        if len(set(vpns)) != len(vpns) or not entries.keys().isdisjoint(vpns):
            # A slot is taken (or named twice): map one by one, so the
            # rows before it land and the error is map's own.
            for vpn, pfn in zip(vpns, pfns):
                self.map(vpn, pfn)
            return
        entries.update(zip(vpns, pfns))
        self._version += len(vpns)
        self.log_dirty_many(vpns)

    def remap(self, vpn: int, pfn: int) -> int:
        """Replace an existing translation; returns the previous pfn.

        Remapping alone does not log the vpn dirty: KSM merges re-point
        pages *without* changing their content.  Content-changing remaps
        (copy-on-write breaks) are logged by the caller,
        :meth:`repro.mem.physmem.HostPhysicalMemory.write_token`.
        """
        try:
            previous = self._entries[vpn]
        except KeyError:
            raise KeyError(f"{self.name}: vpn {vpn:#x} is not mapped") from None
        self._entries[vpn] = pfn
        self._remap_epoch += 1
        return previous

    def unmap(self, vpn: int) -> int:
        """Remove a translation; returns the pfn it pointed to."""
        try:
            pfn = self._entries.pop(vpn)
        except KeyError:
            raise KeyError(f"{self.name}: vpn {vpn:#x} is not mapped") from None
        self._version += 1
        self._note_dirty(vpn)
        return pfn

    def translate(self, vpn: int) -> Optional[int]:
        """Return the pfn for ``vpn``, or None when unmapped."""
        return self._entries.get(vpn)

    def translate_many(self, vpns, missing: int = -1) -> List[int]:
        """Bulk :meth:`translate`: one pfn per vpn, ``missing`` when unmapped.

        Returns a plain list so callers can hand it straight to a columnar
        backend (``missing`` defaults to -1, which is safely outside the
        non-negative pfn space).
        """
        return list(map(self._entries.get, vpns, repeat(missing)))

    def is_mapped(self, vpn: int) -> bool:
        return vpn in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    def entries(self) -> Iterator[Tuple[int, int]]:
        """Iterate over (vpn, pfn) pairs in no particular order."""
        return iter(self._entries.items())

    def mapped_vpns(self):
        """A live *view* of the mapped vpns (supports C-speed set
        algebra against other dict key views, e.g. bulk pruning)."""
        return self._entries.keys()

    def snapshot(self) -> Dict[int, int]:
        """A copy of the raw mapping."""
        return dict(self._entries)

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The mapping as aligned int64 ``(vpns, pfns)`` columns, in the
        table's row order (what dump collection copies)."""
        entries = self._entries
        count = len(entries)
        return (
            np.fromiter(entries.keys(), dtype=np.int64, count=count),
            np.fromiter(entries.values(), dtype=np.int64, count=count),
        )

    # ------------------------------------------------------------------
    # Dirty-page tracking (the PML-style write-notification log)
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Bumped whenever the set of mapped vpns changes."""
        return self._version

    @property
    def remap_epoch(self) -> int:
        """Bumped whenever an existing translation is re-pointed."""
        return self._remap_epoch

    def log_dirty(self, vpn: int) -> None:
        """Record that the content visible at ``vpn`` may have changed."""
        self._note_dirty(vpn)

    def log_dirty_many(self, vpns: Sequence[int]) -> None:
        """Bulk :meth:`log_dirty`, in order: the log and every sink see
        the same vpns as one call per vpn would give them."""
        sinks = self._dirty_sinks
        if sinks:
            self._dirty.update(dict.fromkeys(vpns))
            for sink in sinks:
                for vpn in vpns:
                    sink(vpn)

    def _note_dirty(self, vpn: int) -> None:
        sinks = self._dirty_sinks
        if sinks:
            self._dirty[vpn] = None
            for sink in sinks:
                sink(vpn)

    def attach_dirty_sink(self, sink: Callable[[int], None]) -> None:
        """Register a consumer of the dirty-vpn stream.

        Sinks observe every logged vpn at logging time, so they are not
        affected by (and do not interfere with) :meth:`drain_dirty` /
        :meth:`clear_dirty`, which only manage the primary log.  The
        primary log is kept only while at least one sink is attached.
        """
        if sink not in self._dirty_sinks:
            self._dirty_sinks.append(sink)

    def detach_dirty_sink(self, sink: Callable[[int], None]) -> None:
        """Remove a previously attached sink (no-op when absent).

        Detaching the last sink drops the primary log: nobody reads it
        any more, and a later consumer seeds its work from the table's
        entries, not from the log (``KsmScanner.register``).
        """
        try:
            self._dirty_sinks.remove(sink)
        except ValueError:
            pass
        if not self._dirty_sinks:
            self._dirty.clear()

    @property
    def dirty_count(self) -> int:
        """Number of vpns currently pending in the dirty log."""
        return len(self._dirty)

    def pending_dirty_vpns(self) -> Tuple[int, ...]:
        """The logged vpns, in logging order, without draining them."""
        return tuple(self._dirty)

    def drain_dirty(self) -> List[int]:
        """Return the logged vpns (in logging order) and clear the log."""
        drained = list(self._dirty)
        self._dirty.clear()
        return drained

    def clear_dirty(self) -> None:
        """Discard the log (a full scan subsumes the pending entries)."""
        self._dirty.clear()

    def __repr__(self) -> str:
        return f"PageTable({self.name!r}, entries={len(self._entries)})"
