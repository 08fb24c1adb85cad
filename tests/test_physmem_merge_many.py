"""``HostPhysicalMemory.merge_many`` against one ``merge_into`` per row.

Twin frame tables are built alike from a seed: pages with a handful of
tokens (so many share one), frames mapped twice, KSM-stable frames,
freed frames and an intact huge block.  Each seeded batch goes to one
twin through ``merge_many`` and to the other through one ``merge_into``
per row; after every batch the twins must hold identical frame columns
(``tokens``, ``states``, ``refs``, ``stamps``), ``stamp_clock``,
``frames_in_use`` and tables (``snapshot()``, ``remap_epoch``,
``version``), and a refused batch must raise the same exception with
the same message after the same rows landed.  Every batch names its
frames once, equal tokens per row, except for one row of a refusal
kind: an unmapped vpn, unequal tokens, a frame inside the intact block,
a freed or never allocated frame, a vpn or a frame named twice, or a
row merging a frame into itself.
"""

import random

import pytest

from repro.mem.address_space import PageTable
from repro.mem.physmem import HostPhysicalMemory
from repro.units import MiB

PAGE = 4096
VPNS = 48
TOKENS = 4
#: The vpns of ``t`` that form the huge block.
BLOCK = range(32, 40)
FAULTS = (
    "unmapped", "tokens", "block target", "block page", "freed",
    "never allocated", "pad", "vpn twice", "frame twice", "itself",
)


def build(seed):
    """A frame table and its two page tables, the same for one seed."""
    rng = random.Random(seed)
    pm = HostPhysicalMemory(64 * MiB, PAGE)
    t, u = PageTable("t"), PageTable("u")
    for vpn in range(VPNS):
        pm.map_token(t, vpn, rng.randrange(TOKENS))
    for vpn in range(VPNS // 2):
        pm.map_token(u, vpn, rng.randrange(TOKENS))
    for vpn in rng.sample(range(BLOCK.start), 6):
        pm.share_mapping(u, VPNS + vpn, t.translate(vpn))
    for vpn in rng.sample(range(VPNS // 2), 4):
        pm.mark_ksm_stable(u.translate(vpn))
    for vpn in rng.sample(range(VPNS // 2), 3):
        if u.is_mapped(vpn):
            pm.unmap(u, vpn)
    assert pm.form_block(t, BLOCK.start, len(BLOCK))
    return pm, t, u


def state(pm, tables):
    return (
        pm.tokens.tobytes(), bytes(pm.states), pm.refs.tobytes(),
        pm.stamps.tobytes(), pm.stamp_clock, pm.frames_in_use,
        [(t.snapshot(), t.remap_epoch, t.version) for t in tables],
    )


def outcome(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)
    return None


def clean_rows(rng, pm, table, count):
    """Rows that name each frame once, with equal tokens, outside the
    intact block."""
    live = [
        fid for fid in range(1, len(pm.states))
        if pm.is_live(fid) and not pm.block_of(fid)
    ]
    vpns = table.mapped_vpns().tolist()
    rng.shuffle(vpns)
    named, rows = set(), []
    for vpn in vpns:
        old = table.translate(vpn)
        if old in named or pm.block_of(old):
            continue
        same = [
            fid for fid in live
            if fid != old and fid not in named
            and pm.tokens[fid] == pm.tokens[old]
        ]
        if same:
            target = rng.choice(same)
            named.update((old, target))
            rows.append((vpn, target))
        if len(rows) == count:
            break
    return rows


def faulty_row(rng, pm, table, rows, fault):
    """One row of the ``fault`` kind, or None when the universe has none
    left."""
    mapped = [
        vpn for vpn in table.mapped_vpns().tolist()
        if not pm.block_of(table.translate(vpn))
    ]
    live = [f for f in range(1, len(pm.states)) if pm.is_live(f)]
    block = [f for f in live if pm.block_of(f)]
    if fault == "unmapped":
        return 1000 + rng.randrange(10), rng.choice(live)
    if fault == "tokens":
        vpn = rng.choice(mapped)
        token = pm.tokens[table.translate(vpn)]
        other = [f for f in live if pm.tokens[f] != token]
        return (vpn, rng.choice(other)) if other else None
    if fault == "block target":
        return (rng.choice(mapped), rng.choice(block)) if block else None
    if fault == "block page":
        inside = [v for v in BLOCK if pm.block_of(table.translate(v) or 0)]
        return (rng.choice(inside), rng.choice(live)) if inside else None
    if fault == "freed":
        freed = [
            f for f in range(1, len(pm.states)) if not pm.is_live(f)
        ]
        return (rng.choice(mapped), rng.choice(freed)) if freed else None
    if fault == "never allocated":
        return rng.choice(mapped), len(pm.states) + rng.randrange(5)
    if fault == "pad":
        return rng.choice(mapped), 0
    if fault == "itself":
        vpn = rng.choice(mapped)
        return vpn, table.translate(vpn)
    if not rows:
        return None
    vpn, target = rng.choice(rows)
    token = pm.tokens[target]
    if fault == "vpn twice":
        # The page merges again, into another frame of its token.
        again = [
            f for f in live
            if f != target and pm.tokens[f] == token and not pm.block_of(f)
        ]
        return (vpn, rng.choice(again)) if again else None
    # A second page merging into one target.
    others = [
        v for v in mapped
        if v != vpn and pm.tokens[table.translate(v)] == token
    ]
    return (rng.choice(others), target) if others else None


def churn(rng, pm, tables):
    """Some writes (copy-on-write breaks of merged pages) and unmaps."""
    for _ in range(4):
        table = rng.choice(tables)
        vpn = rng.randrange(VPNS)
        if table.is_mapped(vpn):
            if rng.random() < 0.7:
                pm.write_token(table, vpn, rng.randrange(TOKENS))
            else:
                pm.unmap(table, vpn)


@pytest.mark.parametrize("seed", range(24))
def test_merge_many_matches_merge_into_row_by_row(seed):
    bulk_pm, bulk_t, bulk_u = build(seed)
    rows_pm, rows_t, rows_u = build(seed)
    twins = [bulk_t, bulk_u], [rows_t, rows_u]
    assert state(bulk_pm, twins[0]) == state(rows_pm, twins[1])
    calls = []
    merge_into = bulk_pm.merge_into
    bulk_pm.merge_into = lambda *row: (calls.append(row), merge_into(*row))
    rng = random.Random(seed * 7919)
    bulk_steps = 0
    for step in range(16):
        rows = clean_rows(rng, rows_pm, rows_t, rng.randrange(1, 9))
        fault = rng.choice(FAULTS) if step % 2 else None
        if fault:
            row = faulty_row(rng, rows_pm, rows_t, rows, fault)
            if row is not None:
                rows.insert(rng.randrange(len(rows) + 1), row)
            else:
                fault = None
        vpns = [vpn for vpn, _ in rows]
        targets = [target for _, target in rows]
        del calls[:]
        bulk = outcome(lambda: bulk_pm.merge_many(bulk_t, vpns, targets))
        by_row = outcome(lambda: [
            rows_pm.merge_into(rows_t, vpn, target) for vpn, target in rows
        ])
        assert bulk == by_row, (step, fault, rows)
        assert state(bulk_pm, twins[0]) == state(rows_pm, twins[1]), (
            step, fault, rows,
        )
        if fault is None:
            # A clean batch is one bulk step.
            assert not calls
            bulk_steps += bool(rows)
        churn(random.Random(step + seed), bulk_pm, twins[0])
        churn(random.Random(step + seed), rows_pm, twins[1])
    assert bulk_steps


@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_kind_is_compared(fault):
    """Each refusal kind yields a row in some seeded universe, and the
    refusals raise (``merge_into``'s error) where ``merge_into`` does."""
    for seed in range(24):
        pm, t, u = build(seed)
        rng = random.Random(seed)
        rows = clean_rows(rng, pm, t, 3)
        row = faulty_row(rng, pm, t, rows, fault)
        if row is None:
            continue
        twin_pm, twin_t, twin_u = build(seed)
        rows.insert(1, row)
        vpns = [vpn for vpn, _ in rows]
        targets = [target for _, target in rows]
        bulk = outcome(lambda: pm.merge_many(t, vpns, targets))
        by_row = outcome(lambda: [
            twin_pm.merge_into(twin_t, vpn, target) for vpn, target in rows
        ])
        assert bulk == by_row
        assert state(pm, [t, u]) == state(twin_pm, [twin_t, twin_u])
        if fault in ("vpn twice", "frame twice", "itself"):
            assert bulk is None
        else:
            assert bulk is not None
        return
    pytest.fail(f"no universe has a {fault!r} row")


def test_mismatched_lengths_are_refused():
    pm, t, _ = build(0)
    with pytest.raises(ValueError, match="2 vpns but 1 targets"):
        pm.merge_many(t, [0, 1], [5])


def test_remap_many_matches_remap_row_by_row():
    """Distinct mapped vpns are one bulk step; a repeated or unmapped vpn
    goes row by row, and the rows before an unmapped one land."""
    rng = random.Random(5)
    for case in range(60):
        bulk, rows = PageTable("a"), PageTable("a")
        mapped = rng.sample(range(40), 20) + [600, 1 << 30]
        for vpn in mapped:
            bulk.map(vpn, vpn + 1)
            rows.map(vpn, vpn + 1)
        if case % 3 == 0:
            vpns = rng.sample(mapped, 6)
        elif case % 3 == 1:
            vpns = [rng.choice(mapped) for _ in range(6)]
        else:
            vpns = [rng.randrange(42) for _ in range(6)]
        pfns = [rng.randrange(100) for _ in vpns]
        got, want = [], []
        bulk_error = outcome(
            lambda: got.extend(bulk.remap_many(vpns, pfns).tolist())
        )
        rows_error = outcome(lambda: [
            want.append(rows.remap(vpn, pfn)) for vpn, pfn in zip(vpns, pfns)
        ])
        assert bulk_error == rows_error
        if bulk_error is None:
            assert got == want
        assert bulk.snapshot() == rows.snapshot()
        assert bulk.remap_epoch == rows.remap_epoch
        assert bulk.version == rows.version
