"""Dump diagnostics beyond the paper's figures.

Utilities the figures do not need but a memory analyst immediately wants
when staring at a dump:

* :func:`sharing_histogram` — how many frames have 1, 2, 3, … mappers;
* :func:`cross_vm_sharing_matrix` — bytes each VM shares with each other
  VM (the paper's Fig. 2 note that the other guests' kernel memory "was
  shared with the guest VM 1" is one cell of this matrix);
* :func:`zero_page_census` — how much of the sharing is just zero pages
  (the paper's §III.A heap observation);
* :func:`category_sharing_summary` — shared fraction per Table-IV
  category, across all Java processes.

Each report is a group-by over the mapping rows of the accounting
pipeline (:func:`repro.core.columnar.pipeline.mapping_columns`, one row
per page-table mapping of a backed frame) and the dump's frame table.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.categories import MemoryCategory
from repro.core.columnar.lower import build_registry
from repro.core.columnar.pipeline import mapping_columns
from repro.core.dump import SystemDump
from repro.mem.content import ZERO_TOKEN


def _mappers(fids) -> np.ndarray:
    """Mapping rows per fid (0 for fids no row names)."""
    return np.bincount(fids) if fids.shape[0] else np.zeros(0, np.int64)


def sharing_histogram(dump: SystemDump) -> Dict[int, int]:
    """Map *number of mappings per frame* → frame count.

    Bucket 1 is private memory; everything above is TPS-shared (or
    guest-internal file sharing).
    """
    fids = mapping_columns(dump, build_registry(dump))[0]
    frames_per_size = np.bincount(_mappers(fids)).tolist()
    return {
        size: count
        for size, count in enumerate(frames_per_size)
        if size and count
    }


def cross_vm_sharing_matrix(dump: SystemDump) -> Dict[Tuple[str, str], int]:
    """Bytes of frames jointly mapped by each (unordered) pair of VMs.

    A frame mapped by three VMs contributes the page size to each of the
    three pairs.  Diagonal cells hold bytes shared only *within* one VM
    (e.g. two processes mapping the same guest file page).  Each frame's
    mappers reduce to a VM bitmask (one bit per dumped guest), and the
    pairs are counted once per distinct mask.
    """
    fids, _kind, _pid, vm_index, _rank, _cell = mapping_columns(
        dump, build_registry(dump)
    )
    if not fids.shape[0]:
        return {}
    names = [guest.vm_name for guest in dump.guests]
    bit_of = np.zeros(1 + max(g.vm_index for g in dump.guests), np.uint64)
    bit_of[[guest.vm_index for guest in dump.guests]] = np.arange(
        len(names), dtype=np.uint64
    )
    order = np.argsort(fids, kind="stable")
    ordered = fids[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    masks = np.bitwise_or.reduceat(
        np.left_shift(np.uint64(1), bit_of[vm_index[order]]), starts
    )
    mappers = np.diff(np.append(starts, ordered.shape[0]))
    page = dump.host.page_size
    matrix: Dict[Tuple[str, str], int] = defaultdict(int)
    shared_masks, frames = np.unique(masks[mappers > 1], return_counts=True)
    for mask, count in zip(shared_masks.tolist(), frames.tolist()):
        vm_names = sorted(
            name for bit, name in enumerate(names) if mask >> bit & 1
        )
        if len(vm_names) == 1:
            matrix[(vm_names[0], vm_names[0])] += count * page
        for index, first in enumerate(vm_names):
            for second in vm_names[index + 1:]:
                matrix[(first, second)] += count * page
    return dict(matrix)


@dataclass
class ZeroCensus:
    """How much of the memory (and of the sharing) is zero pages."""

    zero_frames: int = 0
    zero_mappings: int = 0
    shared_nonzero_frames: int = 0
    total_frames: int = 0

    @property
    def zero_fraction_of_frames(self) -> float:
        if self.total_frames == 0:
            return 0.0
        return self.zero_frames / self.total_frames


def zero_page_census(dump: SystemDump) -> ZeroCensus:
    """Count zero frames and their mappings in the dump."""
    counts = _mappers(mapping_columns(dump, build_registry(dump))[0])
    fids = np.flatnonzero(counts)
    mappers = counts[fids]
    table = dump.frames
    zero = np.zeros(fids.shape[0], dtype=bool)
    if len(table):
        at = np.minimum(np.searchsorted(table.fids, fids), len(table) - 1)
        zero = (
            (table.fids[at] == fids)
            & table.has_token[at]
            & (table.tokens[at] == ZERO_TOKEN)
        )
    return ZeroCensus(
        zero_frames=int(np.count_nonzero(zero)),
        zero_mappings=int(mappers[zero].sum()),
        shared_nonzero_frames=int(np.count_nonzero(~zero & (mappers > 1))),
        total_frames=int(fids.shape[0]),
    )


def category_sharing_summary(
    dump: SystemDump,
) -> Dict[MemoryCategory, Tuple[int, int]]:
    """Per Table-IV category: (total mapped bytes, bytes on shared frames).

    Aggregated over every Java process in the dump; "shared" means the
    frame has more than one mapping anywhere in the system.
    """
    registry = build_registry(dump)
    fids, _kind, _pid, _vm_index, _rank, cells = mapping_columns(
        dump, registry
    )
    size = len(registry.cells)
    rows = np.bincount(cells, minlength=size).tolist()
    shared_rows = np.bincount(
        cells[_mappers(fids)[fids] > 1], minlength=size
    ).tolist()
    page = dump.host.page_size
    totals: Dict[MemoryCategory, int] = defaultdict(int)
    shared: Dict[MemoryCategory, int] = defaultdict(int)
    for cell, (_user, category) in enumerate(registry.cells):
        if category is not None and rows[cell]:
            totals[category] += rows[cell] * page
            shared[category] += shared_rows[cell] * page
    return {
        category: (totals[category], shared[category])
        for category in totals
    }
