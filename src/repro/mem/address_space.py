"""Radix page tables.

A :class:`PageTable` is a sparse mapping from virtual page number to a
physical page number.  It is used at every translation layer of the stack:

* guest process virtual page → guest physical frame number (gfn), managed
  by the guest OS;
* guest physical frame number → host virtual page of the VM process,
  managed by the hypervisor's memory slots (KVM) — this layer is an affine
  map and is represented separately by ``MemSlot`` in the hypervisor;
* host process virtual page → host physical frame id, managed by the host
  OS (this is the layer KSM rewrites when it merges pages).

Entries live in 512-entry leaves, the x86 page-table leaf: a directory
maps ``vpn >> 9`` to a leaf number, and leaf ``n`` is slots ``n << 9``
to ``n << 9 | 511`` of one int64 array, -1 marking an unmapped page
(the paper's methodology explicitly handles pages "not mapped to host
physical memory").  Leaves are never freed or moved, so a slot names one
vpn for the table's life.  Whole-table reads come in vpn order.

Each table can keep a **dirty-vpn log** — the software analogue of
Intel's Page-Modification Logging (PML): every event that can change the
content visible through a vpn (a fresh mapping, an in-place store, a
copy-on-write break, an unmap) flags the vpn's slot.  The KSM scanner's
``INCREMENTAL`` policy drains the log, in vpn order, instead of
rescanning the whole table, exactly the lever hardware-assisted dirty
tracking provides.

The log exists only while someone consumes it, as a hypervisor turns
PML on only for the VMs whose log it reads: a table logs while at least
one dirty sink is attached (the KSM scanner attaches one on
``register``, the working-set estimator on ``track``), and detaching
the last sink drops the log.  Guest process tables and the host
kernel's table have no sink, so they log nothing.

Range writers use the bulk forms (:meth:`PageTable.map_many`,
:meth:`PageTable.remap_many`, :meth:`PageTable.log_dirty_many`), which
leave the table exactly as the one-vpn calls would in the same order.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: A leaf holds the entries of ``1 << LEAF_BITS`` consecutive vpns.
LEAF_BITS = 9
_LEAF_MASK = (1 << LEAF_BITS) - 1
_EMPTY_LEAF = array("q", [-1]) * (1 << LEAF_BITS)
#: ``map_many`` and ``write_tokens`` calls of at most this many rows go
#: row by row, and :func:`first_outside` checks them in Python: most
#: calls of a JVM start (class loading's page-cache fills) are that
#: small, and there numpy's set-up costs more than the rows.
SMALL_CALL = 8


def int64_column(values) -> np.ndarray:
    """``values`` (ints, a range or an integer array) as int64."""
    if isinstance(values, range):
        return np.arange(values.start, values.stop, values.step)
    return np.asarray(values, dtype=np.int64)


def first_outside(values, limit: int) -> Optional[int]:
    """Index of the first of ``values`` (ints or an int64 array) outside
    ``[0, limit)``, or None.

    Bulk writers use it to fail where a one-page loop would: after the
    rows before the bad one.
    """
    if len(values) <= SMALL_CALL:
        rows = enumerate(values)
        return next((row for row, v in rows if not 0 <= v < limit), None)
    values = np.asarray(values)
    bad = np.flatnonzero((values < 0) | (values >= limit))
    return int(bad[0]) if bad.size else None


class PageTable:
    """A sparse vpn → pfn mapping with a stable identity.

    ``name`` identifies the table in dumps and error messages, e.g.
    ``"host:qemu-vm1"`` or ``"vm1:pid42"``.
    """

    __slots__ = (
        "name",
        "_leaves",
        "_keys",
        "_slots",
        "_count",
        "_dirty",
        "_version",
        "_remap_epoch",
        "_dirty_sinks",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        # The leaf directory, its inverse and the leaves' slots.
        self._leaves: Dict[int, int] = {}
        self._keys = array("q")
        self._slots = array("q")
        self._count = 0
        # The dirty-vpn log (a flag per slot) and a mapping-set version,
        # bumped whenever the *set* of mapped vpns changes.
        self._dirty = bytearray()
        self._version = 0
        # Bumped on every remap (COW breaks, KSM merges) — together
        # with the version it keys the KSM scanner's cached
        # vpn→pfn columns: while neither moves, no translation result
        # can have changed.
        self._remap_epoch = 0
        # PML consumers (the KSM scanner, the working-set estimator):
        # each sink is fed the vpns of every logging call, independently
        # of — and unaffected by — the scanner draining the primary log,
        # which is kept only while this list is non-empty.
        self._dirty_sinks: List[Callable] = []

    def _leaf(self, key: int) -> int:
        leaf = self._leaves.get(key)
        if leaf is None:
            leaf = self._leaves[key] = len(self._keys)
            self._keys.append(key)
            self._slots.extend(_EMPTY_LEAF)
            if self._dirty_sinks:
                self._dirty.extend(bytes(1 << LEAF_BITS))
        return leaf

    def _mapped_slot(self, vpn: int) -> int:
        leaf = self._leaves.get(vpn >> LEAF_BITS)
        if leaf is not None:
            slot = leaf << LEAF_BITS | vpn & _LEAF_MASK
            if self._slots[slot] >= 0:
                return slot
        raise KeyError(f"{self.name}: vpn {vpn:#x} is not mapped")

    def slots_of(self, vpns: np.ndarray, grow: bool = False) -> np.ndarray:
        """The slot of each int64 vpn, one directory probe per run of
        rows in one leaf; a missing leaf is added when ``grow``, else
        its rows get -1."""
        if not len(vpns):
            return np.empty(0, np.int64)
        get = self._leaves.get
        probe = self._leaf if grow else (lambda key: get(key, -1))
        high = vpns >> LEAF_BITS
        if (high == high[0]).all():
            leaves = probe(int(high[0]))
        else:
            first = np.empty(len(high), np.bool_)
            first[0] = True
            np.not_equal(high[1:], high[:-1], out=first[1:])
            numbers = list(map(probe, high[first].tolist()))
            leaves = np.array(numbers, np.int64)[np.cumsum(first) - 1]
        slots = leaves << LEAF_BITS | vpns & _LEAF_MASK
        slots[leaves < 0] = -1
        return slots

    def vpns_at(self, slots: np.ndarray) -> np.ndarray:
        """The vpn of each of the int64 ``slots``."""
        keys = np.frombuffer(self._keys, np.int64)
        return keys[slots >> LEAF_BITS] << LEAF_BITS | slots & _LEAF_MASK

    @property
    def slot_count(self) -> int:
        return len(self._slots)

    def slot_mask(self) -> np.ndarray:
        """Per slot, whether it maps a page."""
        return np.frombuffer(self._slots, np.int64) >= 0

    def _mapped_slots(self) -> np.ndarray:
        """The slots that map a page, in vpn order."""
        order = np.argsort(np.frombuffer(self._keys, np.int64))
        slots = order[:, None] << LEAF_BITS | np.arange(_LEAF_MASK + 1)
        slots = slots.ravel()
        return slots[np.frombuffer(self._slots, np.int64)[slots] >= 0]

    def map(self, vpn: int, pfn: int) -> None:
        """Install a translation; the slot must currently be empty."""
        slot = self._leaf(vpn >> LEAF_BITS) << LEAF_BITS | vpn & _LEAF_MASK
        if self._slots[slot] >= 0:
            raise ValueError(
                f"{self.name}: vpn {vpn:#x} is already mapped "
                f"(to pfn {self._slots[slot]:#x})"
            )
        self._slots[slot] = pfn
        self._count += 1
        self._version += 1
        if self._dirty_sinks:
            self._log(slot, vpn)

    def map_many(self, vpns, pfns) -> None:
        """Bulk :meth:`map`: install ``vpns[i] -> pfns[i]`` in order."""
        if len(vpns) > SMALL_CALL:
            vpns = int64_column(vpns)
            slots = self.slots_of(vpns, grow=True)
            column = np.frombuffer(self._slots, np.int64)
            # Every slot is empty and no vpn is named twice when row
            # numbers written into the slots read back unchanged.
            rows = np.arange(len(slots))
            if not (column[slots] >= 0).any():
                column[slots] = rows
                if (column[slots] == rows).all():
                    column[slots] = int64_column(pfns)
                    self._count += len(slots)
                    self._version += len(slots)
                    if self._dirty_sinks:
                        self._log_many(slots, vpns)
                    return
                column[slots] = -1
            del column
        # One by one: the rows before a clash land, the error is map's.
        for vpn, pfn in zip(vpns, pfns):
            self.map(int(vpn), int(pfn))

    def remap(self, vpn: int, pfn: int) -> int:
        """Replace an existing translation; returns the previous pfn.

        Remapping alone does not log the vpn dirty: KSM merges re-point
        pages *without* changing their content.  Content-changing remaps
        (copy-on-write breaks) are logged by the caller,
        :meth:`repro.mem.physmem.HostPhysicalMemory.write_token`.
        """
        slot = self._mapped_slot(vpn)
        previous = self._slots[slot]
        self._slots[slot] = pfn
        self._remap_epoch += 1
        return previous

    def remap_many(self, vpns, pfns) -> np.ndarray:
        """Bulk :meth:`remap` in row order; returns the previous pfns
        (int64).  An unmapped or repeated vpn sends the call row by row:
        the rows before an unmapped one land, the error is remap's."""
        vpns, pfns = int64_column(vpns), int64_column(pfns)
        slots = self.slots_of(vpns)
        # (np.unique would import numpy.ma, about 1.5 MB of RSS.)
        if (slots >= 0).all() and (np.diff(np.sort(slots)) != 0).all():
            column = np.frombuffer(self._slots, np.int64)
            previous = column[slots]
            if (previous >= 0).all():
                column[slots] = pfns
                self._remap_epoch += len(slots)
                return previous
            del column
        remapped = map(self.remap, vpns.tolist(), pfns.tolist())
        return np.fromiter(remapped, np.int64, len(vpns))

    def unmap(self, vpn: int) -> int:
        """Remove a translation; returns the pfn it pointed to."""
        slot = self._mapped_slot(vpn)
        pfn = self._slots[slot]
        self._slots[slot] = -1
        self._count -= 1
        self._version += 1
        if self._dirty_sinks:
            self._log(slot, vpn)
        return pfn

    def translate(self, vpn: int) -> Optional[int]:
        """Return the pfn for ``vpn``, or None when unmapped."""
        leaf = self._leaves.get(vpn >> LEAF_BITS)
        if leaf is not None:
            pfn = self._slots[leaf << LEAF_BITS | vpn & _LEAF_MASK]
            if pfn >= 0:
                return pfn
        return None

    def translate_many(self, vpns, missing: int = -1) -> np.ndarray:
        """Bulk :meth:`translate`: one pfn per vpn as an int64 array,
        ``missing`` (by default -1, outside the pfn space) when
        unmapped."""
        if not self._keys:
            return np.full(len(vpns), missing, np.int64)
        slots = self.slots_of(int64_column(vpns))
        # A vpn without a leaf reads slot -1 and is masked out.
        pfns = np.frombuffer(self._slots, np.int64)[slots]
        pfns[(slots < 0) | (pfns < 0)] = missing
        return pfns

    def is_mapped(self, vpn: int) -> bool:
        return self.translate(vpn) is not None

    __contains__ = is_mapped

    def __len__(self) -> int:
        return self._count

    def entries(self) -> Iterator[Tuple[int, int]]:
        """Iterate over (vpn, pfn) pairs in vpn order."""
        vpns, pfns = self.columns()
        return zip(vpns.tolist(), pfns.tolist())

    def mapped_vpns(self) -> np.ndarray:
        """The mapped vpns, ascending, as an int64 column."""
        return self.vpns_at(self._mapped_slots())

    def snapshot(self) -> Dict[int, int]:
        """A copy of the raw mapping."""
        return dict(self.entries())

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The mapping as aligned int64 ``(vpns, pfns)`` columns in vpn
        order, copied from the mapped slots (what dump collection
        takes)."""
        slots = self._mapped_slots()
        return self.vpns_at(slots), np.frombuffer(self._slots, np.int64)[slots]

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
        if self._dirty_sinks:
            self._log(self._leaf(vpn >> LEAF_BITS) << LEAF_BITS
                      | vpn & _LEAF_MASK, vpn)

    def log_dirty_many(self, vpns) -> None:
        """Bulk :meth:`log_dirty`: each sink gets the int64 ``vpns`` in
        one call."""
        if self._dirty_sinks:
            vpns = int64_column(vpns)
            self._log_many(self.slots_of(vpns, grow=True), vpns)

    def _log(self, slot: int, vpn: int) -> None:
        self._dirty[slot] = 1
        for sink in self._dirty_sinks:
            sink((vpn,))

    def _log_many(self, slots: np.ndarray, vpns: np.ndarray) -> None:
        np.frombuffer(self._dirty, np.bool_)[slots] = True
        for sink in self._dirty_sinks:
            sink(vpns)

    def attach_dirty_sink(self, sink: Callable) -> None:
        """Register a consumer of the dirty-vpn stream.

        A sink is called once per logging call with its vpns, in row
        order (a tuple of one int, or an int64 array for a bulk call),
        at logging time, so it is not affected by (and does not
        interfere with) :meth:`drain_dirty` / :meth:`clear_dirty`, which
        only manage the primary log.  The primary log is kept only while
        at least one sink is attached.
        """
        if sink not in self._dirty_sinks:
            if not self._dirty_sinks:
                self._dirty = bytearray(len(self._slots))
            self._dirty_sinks.append(sink)

    def detach_dirty_sink(self, sink: Callable) -> None:
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
            self._dirty = bytearray()

    @property
    def dirty_count(self) -> int:
        """Number of vpns currently pending in the dirty log."""
        return self._dirty.count(1)

    def pending_dirty_vpns(self) -> Tuple[int, ...]:
        """The logged vpns, ascending, without draining them."""
        slots = np.flatnonzero(np.frombuffer(self._dirty, np.bool_))
        return tuple(np.sort(self.vpns_at(slots)).tolist())

    def drain_dirty(self) -> List[int]:
        """Return the logged vpns (ascending) and clear the log."""
        drained = list(self.pending_dirty_vpns())
        self.clear_dirty()
        return drained

    def clear_dirty(self) -> None:
        """Discard the log (a full scan subsumes the pending entries)."""
        np.frombuffer(self._dirty, np.uint8)[:] = 0

    def __repr__(self) -> str:
        return f"PageTable({self.name!r}, entries={self._count})"
