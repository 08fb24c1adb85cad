"""Reference implementations the production paths are compared against.

Each one is the paper's method written a page or a frame at a time:

* :class:`PerPageScanner` — the KSM scanner with its columnar segment
  kernels replaced by the per-page state machine (``_examine``), the
  per-vpn incremental worklist and the stable-tree walk behind the
  history gauges.  Everything else (registration, pass boundaries,
  pruning, cost charging) is the production scanner's.
* :func:`dict_owner_accounting` / :func:`dict_distribution_accounting`
  — the per-frame aggregation over
  :func:`repro.core.accounting.build_frame_usage`.
* :func:`use_oracle` — swaps both into every testbed built afterwards,
  for scenario-level comparisons.
* :func:`write_pages_per_page`, :func:`fault_file_pages_per_page` and
  :func:`page_gfn_per_page` — the guest write path one page at a time
  through every layer (process page table, guest allocator, KVM memslot,
  compressed-pool fault, Satori fill, :meth:`HostPhysicalMemory.write_token`),
  the reference for the bulk ``write_pages`` / ``alloc_gfns`` /
  ``write_gfns`` / ``write_tokens`` chain.
* :func:`page_tokens_per_page` — page tokens of a chunk layout, one page
  at a time, each a BLAKE2b digest of the page's non-zero slices: the
  reference for the equality relation of
  :func:`repro.mem.content.page_tokens`.

Importable from ``tests/`` and ``benchmarks/`` as ``tests.oracle``.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.core.accounting import (
    FrameUsage,
    Mapping,
    OwnerAccounting,
    PssAccounting,
    build_frame_usage,
)
from repro.core.dump import SystemDump
from repro.guestos.kernel import OutOfGuestMemoryError, OwnerKind
from repro.ksm.index import STABLE
from repro.ksm.scanner import KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.content import ZERO_CONTENT, ZERO_TOKEN
from repro.mem.physmem import STABLE as FRAME_STABLE
from repro.sim.rng import stable_hash64


class PerPageScanner(KsmScanner):
    """The KSM scanner, examining one page at a time."""

    def scan_pages(self, budget: int) -> int:
        if budget <= 0 or not self._tables:
            return 0
        if self._idle():
            if self._started_pass:
                self._table_cursor = (
                    self._table_cursor + 2
                ) % len(self._tables)
            return 0
        examined = 0
        empty_rounds = 0
        while examined < budget:
            if self._scan_pos >= len(self._scan_list):
                if not self._advance_table():
                    empty_rounds += 1
                    if empty_rounds > len(self._tables) + 1:
                        self._work_hint = False
                        break
                    continue
                empty_rounds = 0
            vpn = self._scan_list[self._scan_pos]
            self._scan_pos += 1
            self._examine(self._tables[self._table_cursor], vpn)
            examined += 1
            self._pass_examined += 1
        self.stats.pages_scanned += examined
        return examined

    def _install_incremental_worklist(self, table: PageTable) -> None:
        due: Set[int] = set()
        drained = table.drain_dirty()
        if drained:
            self.stats.dirty_log_drained += len(drained)
        last = self._last_tokens[table]
        for vpn in drained:
            if table.is_mapped(vpn):
                due.add(vpn)
                continue
            previous = last.pop(vpn, None)
            if previous is None:
                continue
            node = self._index.lookup(previous)
            if (
                node is not None
                and node[0] != STABLE
                and node[1] is table
                and node[2] == vpn
            ):
                self._index.drop(previous)
        recheck = self._recheck[table]
        if recheck:
            due.update(vpn for vpn in recheck if table.is_mapped(vpn))
            recheck.clear()
        hints = self._cold_hints[table]
        if hints:
            due.update(vpn for vpn in hints if table.is_mapped(vpn))
            hints.clear()
        self._scan_list = sorted(due)
        self._scan_pos = 0

    def _examine(self, table: PageTable, vpn: int) -> None:
        fid = table.translate(vpn)
        if fid is None:
            return
        physmem = self.physmem
        token = physmem.token_of(fid)
        if physmem.states[fid] == FRAME_STABLE:
            return
        node = self._index.lookup(token)
        if node is not None and node[0] == STABLE:
            stable_fid = node[1]
            if (
                physmem.states[stable_fid] != FRAME_STABLE
                or physmem.token_of(stable_fid) != token
            ):
                self._index.drop(token)
                node = None
            elif stable_fid != fid:
                self._split_for_merge(fid)
                physmem.merge_into(table, vpn, stable_fid)
                self.stats.merges += 1
                return
            else:
                return
        last = self._last_tokens[table]
        previous = last.get(vpn)
        last[vpn] = token
        if previous != token:
            self.stats.volatile_skips += 1
            if self.config.scan_policy is not ScanPolicy.FULL:
                self._recheck[table].add(vpn)
            return
        if node is None:
            self._index.set_unstable(token, table, vpn)
            return
        _, partner_table, partner_vpn = node
        if partner_table is table and partner_vpn == vpn:
            return
        partner_fid = partner_table.translate(partner_vpn)
        if partner_fid is None:
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        if physmem.token_of(partner_fid) != token:
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        if partner_fid == fid:
            self._split_for_merge(fid)
            physmem.mark_ksm_stable(fid)
            self._index.set_stable(token, fid)
            return
        self._split_for_merge(partner_fid)
        self._split_for_merge(fid)
        physmem.mark_ksm_stable(partner_fid)
        self._index.set_stable(token, partner_fid)
        physmem.merge_into(table, vpn, partner_fid)
        self.stats.merges += 1

    def _record_history(self) -> None:
        shared = 0
        sharing = 0
        physmem = self.physmem
        for _token, fid in self._index.stable_items():
            if physmem.states[fid] == FRAME_STABLE:
                shared += 1
                sharing += physmem.refs[fid]
        self.history.append((self.clock.now_ms, shared, sharing))


def _owner_sort_key(mapping: Mapping) -> Tuple:
    """Ownership priority: Java first, then smallest PID, then VM order."""
    user = mapping.user
    return (user.kind, user.pid if user.pid >= 0 else 1 << 30,
            user.vm_index, mapping.tag)


def dict_owner_accounting(
    dump: SystemDump, usage: Optional[FrameUsage] = None
) -> OwnerAccounting:
    """Owner-oriented accounting, one frame's mapping list at a time."""
    if usage is None:
        usage = build_frame_usage(dump)
    result = OwnerAccounting(page_size=dump.host.page_size)
    page = dump.host.page_size
    for mappings in usage.values():
        ordered = sorted(mappings, key=_owner_sort_key)
        owner = ordered[0]
        result.cell(owner.user, owner.category).usage_bytes += page
        for mapping in ordered[1:]:
            result.cell(mapping.user, mapping.category).shared_bytes += page
    return result


def dict_distribution_accounting(
    dump: SystemDump, usage: Optional[FrameUsage] = None
) -> PssAccounting:
    """PSS accounting, one frame's mapping list at a time."""
    if usage is None:
        usage = build_frame_usage(dump)
    result = PssAccounting(page_size=dump.host.page_size)
    page = dump.host.page_size
    for mappings in usage.values():
        share = page / len(mappings)
        for mapping in mappings:
            user = mapping.user
            result.pss_bytes[user] = result.pss_bytes.get(user, 0.0) + share
            result.rss_bytes[user] = result.rss_bytes.get(user, 0) + page
    return result


def use_oracle(monkeypatch) -> None:
    """Build every later testbed with the per-page scanner and run its
    accounting through the per-frame dict aggregation."""
    from repro.core.experiments import testbed
    from repro.hypervisor import kvm

    monkeypatch.setattr(kvm, "KsmScanner", PerPageScanner)
    monkeypatch.setattr(
        testbed, "owner_oriented_accounting", dict_owner_accounting
    )


# ----------------------------------------------------------------------
# The guest write path, one page at a time
# ----------------------------------------------------------------------


def alloc_gfn_per_page(kernel, owner) -> int:
    """One guest-physical page: the free list's last entry, else the
    never-used top, else the OOM handler's reclaim."""
    if not kernel._free_gfns and kernel._next_gfn >= kernel._npages:
        if kernel._oom_handler is None or not kernel._oom_handler():
            raise OutOfGuestMemoryError(
                f"{kernel.vm.name}: guest memory exhausted "
                f"({kernel._npages} pages)"
            )
    if kernel._free_gfns:
        gfn = kernel._free_gfns.pop()
    else:
        if kernel._next_gfn >= kernel._npages:
            raise OutOfGuestMemoryError(
                f"{kernel.vm.name}: guest memory exhausted "
                f"({kernel._npages} pages)"
            )
        gfn = kernel._next_gfn
        kernel._next_gfn += 1
    kernel._owners[gfn] = owner
    return gfn


def satori_fill_page_per_page(registry, table: PageTable, vpn, token):
    """One Satori page-cache fill: share a resident copy (splitting a
    huge block around either frame, and dropping a reused page that
    holds other content), else write the page and register its frame."""
    registry.fills += 1
    physmem = registry.physmem
    existing = registry._by_token.get(token)
    if existing is not None:
        if physmem.is_live(existing) and physmem.tokens[existing] == token:
            physmem.split_block_of(existing, "satori-share")
            physmem.mark_ksm_stable(existing)
            old = table.translate(vpn)
            if old is None:
                physmem.share_mapping(table, vpn, existing)
            elif physmem.tokens[old] == token:
                physmem.split_block_of(old, "satori-share")
                physmem.merge_into(table, vpn, existing)
            else:
                # The fill overwrites a reused page holding other content.
                physmem.unmap(table, vpn)
                physmem.share_mapping(table, vpn, existing)
            registry.immediate_shares += 1
            return existing
        del registry._by_token[token]
    fid = physmem.write_token(table, vpn, token)
    registry._by_token[token] = fid
    return fid


def write_gfn_per_page(vm, gfn: int, token: int, filebacked: bool = False):
    """One KVM guest-page write: memslot shift, compressed-pool fault,
    then a Satori fill (file-backed, Satori on) or a host store."""
    vpn = vm._host_vpn(gfn)
    store = vm.host.compression
    if store is not None and store.is_compressed(vm.page_table, vpn):
        store.access_page(vm.page_table, vpn)
    if filebacked and vm.host.satori is not None:
        satori_fill_page_per_page(vm.host.satori, vm.page_table, vpn, token)
    else:
        vm.host.physmem.write_token(vm.page_table, vpn, token)


def write_pages_per_page(process, vma, pages, tokens) -> None:
    """``process.write_pages``, one page at a time."""
    kernel = process.kernel
    for page, token in zip(list(pages), list(tokens)):
        process._check_alive()
        if vma.is_file_backed:
            raise ValueError(f"VMA {vma.tag!r} is a read-only file mapping")
        vpn = vma.vpn_of(page)
        gfn = process.page_table.translate(vpn)
        if gfn is None:
            gfn = alloc_gfn_per_page(
                kernel,
                kernel.owner_record(
                    OwnerKind.PROCESS_ANON, process.pid, vma.tag
                ),
            )
            process.page_table.map(vpn, gfn)
        write_gfn_per_page(kernel.vm, gfn, token)


def page_gfn_per_page(cache, backing, index: int) -> int:
    """``PageCache.page_gfn``, filling a miss with one page fault."""
    key = (backing.file_id, index)
    gfn = cache._pages.get(key)
    if gfn is None:
        kernel = cache._kernel
        gfn = alloc_gfn_per_page(
            kernel,
            kernel.owner_record(OwnerKind.PAGE_CACHE, tag=backing.file_id),
        )
        write_gfn_per_page(
            kernel.vm, gfn, backing.page_token(index), filebacked=True
        )
        cache._pages[key] = gfn
    return gfn


def fault_file_pages_per_page(process, vma, start_page=0, count=None) -> None:
    """``process.fault_file_pages``, one page at a time."""
    process._check_alive()
    if count is None:
        count = vma.npages - start_page
    cache = process.kernel.page_cache
    for index in range(start_page, start_page + count):
        vpn = vma.vpn_of(index)
        if process.page_table.is_mapped(vpn):
            continue
        file_index = vma.file_offset_pages + index
        gfn = page_gfn_per_page(cache, vma.backing, file_index)
        process.page_table.map(vpn, gfn)
        key = (vma.backing.file_id, file_index)
        cache._mapcount[key] = cache._mapcount.get(key, 0) + 1


def page_tokens_per_page(chunks, page_size: int, base_offset: int = 0):
    """Page tokens of ``chunks`` (:class:`repro.mem.content.Chunk`) laid
    out from ``base_offset``: per page, the BLAKE2b digest of its
    non-zero slices ``(content id, offset in chunk, length, offset in
    page)`` in address order, or ``ZERO_TOKEN`` when it has none."""
    total = sum(chunk.size for chunk in chunks)
    if total == 0:
        return []
    page_count = -(-(base_offset + total) // page_size)
    tokens = []
    chunk_index = 0
    chunk_start = base_offset  # absolute address of the current chunk
    for page in range(page_count):
        page_begin = page * page_size
        page_end = page_begin + page_size
        parts = []
        while chunk_index < len(chunks):
            chunk = chunks[chunk_index]
            chunk_end = chunk_start + chunk.size
            if chunk_end <= page_begin:
                chunk_index += 1
                chunk_start = chunk_end
                continue
            if chunk_start >= page_end:
                break
            slice_begin = max(chunk_start, page_begin)
            slice_end = min(chunk_end, page_end)
            if chunk.content_id != ZERO_CONTENT:
                parts.extend((
                    chunk.content_id,
                    slice_begin - chunk_start,
                    slice_end - slice_begin,
                    slice_begin - page_begin,
                ))
            if chunk_end > page_end:
                break  # the chunk continues on the next page
            chunk_index += 1
            chunk_start = chunk_end
        tokens.append(stable_hash64("page", *parts) if parts else ZERO_TOKEN)
    return tokens
