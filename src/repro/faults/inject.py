"""Injectors: apply a fault plan's damage to collected dumps.

Each injector mutates the *collected* :class:`~repro.core.dump.GuestDump`
or :class:`~repro.core.dump.SystemDump` — never the live system — the
same way a real collection fault corrupts what lands on disk: it edits
the dump's columns in place or filters their rows.  All
choices draw from plan streams keyed by ``("inject", kind, vm_name)``,
so the damage is a pure function of (seed, rates, dump contents).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.core.columnar.backend import (
    column,
    exact_build,
    exact_lookup,
    interval_lookup,
    marked,
    select,
)
from repro.faults.plan import FaultKind, FaultPlan, InjectedFault
from repro.guestos.kernel import OwnerKind
from repro.hypervisor.kvm import MemSlot

if TYPE_CHECKING:  # avoid a cycle: core.dump imports this module
    from repro.core.dump import GuestDump, PageColumns, SystemDump

#: Host-vpn offset used to aim an injected stale memslot at unmapped
#: space inside the VM's region (far above guest memory and overhead).
_GHOST_SLOT_OFFSET_PAGES = 1 << 20


def _sample(stream, population, k: int) -> List:
    """Deterministic sample of ``k`` items from a sorted population."""
    population = sorted(population)
    k = min(k, len(population))
    return stream.sample(population, k) if k else []


def inject_guest_faults(
    guest: "GuestDump", kinds: List[FaultKind], plan: FaultPlan
) -> List[InjectedFault]:
    """Apply the guest-dump fault classes selected for this guest."""
    injected: List[InjectedFault] = []
    for kind in kinds:
        if kind is FaultKind.TRUNCATED_GUEST_DUMP:
            injected.append(_truncate_guest_dump(guest, plan))
        elif kind is FaultKind.DROPPED_MEMSLOT:
            fault = _drop_memslot(guest, plan)
            if fault is not None:
                injected.append(fault)
        elif kind is FaultKind.OVERLAPPING_MEMSLOT:
            fault = _overlap_memslot(guest, plan)
            if fault is not None:
                injected.append(fault)
        elif kind is FaultKind.CORRUPT_GUEST_PTE:
            fault = _corrupt_guest_ptes(guest, plan)
            if fault is not None:
                injected.append(fault)
    return injected


def _truncate_guest_dump(
    guest: "GuestDump", plan: FaultPlan
) -> InjectedFault:
    """Cut the dump short: the tail of the gfn-ownership map (its
    highest gfns) is lost and, when several processes were dumped, so is
    the last process."""
    stream = plan.stream(
        "inject", FaultKind.TRUNCATED_GUEST_DUMP.value, guest.vm_name
    )
    owners = guest.gfn_owners
    keep = int(len(owners) * (0.3 + 0.4 * stream.random()))
    if keep < len(owners):
        kept = owners.keys < np.partition(owners.keys, keep)[keep]
        guest.gfn_owners = type(owners)(
            owners.keys[kept], owners.values[kept]
        )
    detail = f"dropped {len(owners) - keep} tail gfn-owner records"
    if len(guest.processes) > 1:
        lost = guest.processes.pop()
        detail += f"; lost process pid={lost.pid} ({lost.name})"
    return InjectedFault(
        FaultKind.TRUNCATED_GUEST_DUMP, guest.vm_name, detail
    )


def _drop_memslot(guest: "GuestDump", plan: FaultPlan):
    if not guest.memslots:
        return None
    stream = plan.stream(
        "inject", FaultKind.DROPPED_MEMSLOT.value, guest.vm_name
    )
    index = stream.randrange(len(guest.memslots))
    slot = guest.memslots.pop(index)
    guest.invalidate_caches()
    return InjectedFault(
        FaultKind.DROPPED_MEMSLOT,
        guest.vm_name,
        f"dropped memslot base_gfn={slot.base_gfn} npages={slot.npages}",
    )


def _overlap_memslot(guest: "GuestDump", plan: FaultPlan):
    """Add a stale duplicate slot covering the upper half of the largest
    slot, pointing at unmapped host space (a torn memslot-array read)."""
    if not guest.memslots:
        return None
    base = max(guest.memslots, key=lambda slot: slot.npages)
    if base.npages < 2:
        return None
    half = base.npages // 2
    ghost = MemSlot(
        base_gfn=base.base_gfn + base.npages - half,
        npages=half,
        host_base_vpn=(
            base.host_base_vpn + base.npages + _GHOST_SLOT_OFFSET_PAGES
        ),
    )
    guest.memslots.append(ghost)
    guest.invalidate_caches()
    return InjectedFault(
        FaultKind.OVERLAPPING_MEMSLOT,
        guest.vm_name,
        f"ghost slot base_gfn={ghost.base_gfn} npages={ghost.npages}",
    )


def _corrupt_guest_ptes(guest: "GuestDump", plan: FaultPlan):
    """Tear page-table entries of one process: some point outside guest
    memory, some at another process's anonymous pages."""
    stream = plan.stream(
        "inject", FaultKind.CORRUPT_GUEST_PTE.value, guest.vm_name
    )
    candidates = []
    for process in guest.processes:
        vpns = process.page_table.keys
        anon = select(column(
            [vma.file_id is None for vma in process.vmas]
        ), interval_lookup(process.vma_table(), vpns), 0)
        if anon.any():
            candidates.append((process, vpns[anon.astype(bool)]))
    if not candidates:
        return None
    victim, anon_vpns = candidates[stream.randrange(len(candidates))]
    count = min(16, max(1, len(anon_vpns) // 64))
    chosen = _sample(stream, anon_vpns.tolist(), count)
    # Cross-pid targets: gfns anonymously owned by a *different* process.
    owners = guest.gfn_owners
    owner_table = exact_build(owners.keys, owners.values)
    targets = []
    for process in guest.processes:
        if process.pid == victim.pid:
            continue
        gfns = process.page_table.values
        owned = select(column([
            owner.kind is OwnerKind.PROCESS_ANON and owner.pid == process.pid
            for owner in guest.owner_records
        ]), exact_lookup(owner_table, gfns), 0)
        targets.append(gfns[owned.astype(bool)])
    pool = np.sort(np.concatenate(targets)).tolist() if targets else []
    out_of_range = 0
    cross_pid = 0
    for index, vpn in enumerate(sorted(chosen)):
        row = victim.page_table.row_of(vpn)
        if pool and index % 2 == 0:
            victim.page_table.values[row] = stream.choice(pool)
            cross_pid += 1
        else:
            victim.page_table.values[row] = guest.guest_npages + 1 + index
            out_of_range += 1
    return InjectedFault(
        FaultKind.CORRUPT_GUEST_PTE,
        guest.vm_name,
        f"pid={victim.pid}: {out_of_range} out-of-range, "
        f"{cross_pid} cross-pid PTEs",
    )


def inject_system_faults(
    dump: "SystemDump",
    plan: FaultPlan,
    guest_kinds: Dict[str, List[FaultKind]],
) -> List[InjectedFault]:
    """Apply host-layer faults after the system dump is assembled.

    These model collection skew: the host page-table snapshot and the
    frame array are read at different moments while KSM keeps merging.
    """
    injected: List[InjectedFault] = []
    for vm_name in sorted(guest_kinds):
        kinds = guest_kinds[vm_name]
        table = dump.host.page_tables.get(f"host:qemu-{vm_name}")
        if not table:
            continue
        if FaultKind.TORN_HOST_PTE in kinds:
            fault = _tear_host_ptes(dump, table, vm_name, plan)
            if fault is not None:
                injected.append(fault)
        if FaultKind.MISSING_FRAME_TOKEN in kinds:
            fault = _drop_frame_tokens(dump, table, vm_name, plan)
            if fault is not None:
                injected.append(fault)
    return injected


def _tear_host_ptes(
    dump: "SystemDump", table: "PageColumns", vm_name: str, plan: FaultPlan
):
    """Rewrite host PTEs to frames KSM merged *after* the frame array was
    snapshotted, so PTE sharer counts disagree with dumped refcounts."""
    stream = plan.stream(
        "inject", FaultKind.TORN_HOST_PTE.value, vm_name
    )
    fids = np.flatnonzero(
        marked(int(table.values.max()) + 1, [table.values])
    ).tolist()
    if len(fids) < 2:
        return None
    count = min(8, max(1, len(table) // 128))
    chosen = _sample(stream, table.keys.tolist(), count)
    for vpn in sorted(chosen):
        row = table.row_of(vpn)
        current = int(table.values[row])
        target = stream.choice(fids)
        if target == current:
            target = fids[(fids.index(current) + 1) % len(fids)]
        table.values[row] = target
    return InjectedFault(
        FaultKind.TORN_HOST_PTE,
        vm_name,
        f"rewrote {len(chosen)} host PTEs to post-snapshot frames",
    )


def _drop_frame_tokens(
    dump: "SystemDump", table: "PageColumns", vm_name: str, plan: FaultPlan
):
    """Lose the content tokens of some frames the table maps; their
    refcounts stay in the frame table."""
    stream = plan.stream(
        "inject", FaultKind.MISSING_FRAME_TOKEN.value, vm_name
    )
    frames = dump.frames
    mapped = np.isin(frames.fids, table.values)
    fids = frames.fids[mapped & frames.has_token].tolist()
    if not fids:
        return None
    count = min(8, max(1, len(fids) // 128))
    chosen = _sample(stream, fids, count)
    frames.has_token[np.searchsorted(frames.fids, chosen)] = False
    return InjectedFault(
        FaultKind.MISSING_FRAME_TOKEN,
        vm_name,
        f"lost content tokens of {len(chosen)} frames",
    )
