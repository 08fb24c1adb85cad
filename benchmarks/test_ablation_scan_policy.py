"""Ablation A11 — KSM scan policy (dirty-log-driven incremental scanning).

The paper's KSM configuration rescans every registered page round-robin
(``ScanPolicy.FULL``), burning scanner CPU proportional to *total* guest
memory even when nothing changes.  This ablation reruns the Fig. 3(a)
memory shape — several guests with a shared-content fraction and a
churning Java-heap fraction — under the PML-style ``INCREMENTAL`` and
``HYBRID`` policies and measures what dirty tracking buys:

* identical ``pages_saved`` (the figures do not change), and
* a ≥5x reduction in pages examined at the same steady state.

Writes ``BENCH_scan_policy.json`` (override the path with
``REPRO_BENCH_JSON``) so CI can archive the numbers.
"""

import json
import os

from repro.config import KsmSettings, ScenarioSpec
from repro.core.experiments.scenarios import run
from repro.core.preload import CacheDeployment
from repro.core.report import render_series
from repro.ksm.scanner import KsmConfig, KsmScanner
from repro.mem.address_space import PageTable
from repro.mem.physmem import HostPhysicalMemory
from repro.sim.clock import SimClock
from repro.sim.rng import RngFactory, stable_hash64
from repro.units import MiB

from conftest import BENCH_SCALE, BENCH_TICKS

PAGE = 4096
POLICIES = ("full", "incremental", "hybrid")
N_TABLES = 4  # the fig3a scenario runs four DayTrader guests
PAGES_PER_TABLE = 3000
SHARED_FRACTION = 0.3  # cross-VM identical pages (kernel, JVM text, ...)
HEAP_FRACTION = 0.05  # churned every tick, like the Java heap under GC
MEASUREMENT_CYCLES = 40


def build_memory():
    """Four address spaces shaped like the fig3a guests."""
    pm = HostPhysicalMemory(1024 * MiB, PAGE)
    rng = RngFactory(11).stream("scan-policy")
    tables = [PageTable(f"vm{i}") for i in range(N_TABLES)]
    shared_limit = int(PAGES_PER_TABLE * SHARED_FRACTION)
    for index, table in enumerate(tables):
        for vpn in range(PAGES_PER_TABLE):
            if vpn < shared_limit:
                token = stable_hash64("common", vpn)
            else:
                token = stable_hash64(
                    "private", index, vpn, rng.getrandbits(32)
                )
            pm.map_token(table, vpn, token)
    return pm, tables


def churn_heaps(pm, tables, tick):
    """Rewrite each table's heap fraction (GC keeps the pages volatile)."""
    heap_start = int(PAGES_PER_TABLE * (1.0 - HEAP_FRACTION))
    for index, table in enumerate(tables):
        for vpn in range(heap_start, PAGES_PER_TABLE):
            pm.write_token(
                table, vpn, stable_hash64("heap", index, vpn, tick)
            )


def run_policy(policy):
    pm, tables = build_memory()
    clock = SimClock()
    scanner = KsmScanner(
        pm, clock, KsmConfig(pages_to_scan=1000, scan_policy=policy)
    )
    for table in tables:
        scanner.register(table)
    # Phase 1: converge on the initial (quiescent) content.
    scanner.run_until_converged(max_passes=10)
    # Phase 2: measurement ticks — the heap churns, the rest is idle.
    for tick in range(MEASUREMENT_CYCLES):
        churn_heaps(pm, tables, tick)
        scanner.run_cycles(10)
    stats = scanner.snapshot_stats()
    return {
        "policy": policy,
        "pages_saved": stats.pages_saved,
        "pages_scanned": stats.pages_scanned,
        "dirty_log_drained": stats.dirty_log_drained,
        "cpu_ms": stats.cpu_ms,
        "merges": stats.merges,
        "volatile_skips": stats.volatile_skips,
    }


def sweep():
    return [run_policy(policy) for policy in POLICIES]


def _scenario_level_comparison():
    """Small-scale end-to-end check through the full testbed pipeline."""
    out = {}
    for policy in ("full", "incremental"):
        result = run(ScenarioSpec(
            "daytrader4",
            CacheDeployment.NONE,
            scale=min(BENCH_SCALE, 0.05),
            measurement_ticks=min(BENCH_TICKS, 3),
            ksm=KsmSettings(scan_policy=policy),
        ))
        stats = result.ksm_stats
        out[policy] = {
            "pages_saved": stats.pages_saved,
            "pages_scanned": stats.pages_scanned,
            "cpu_ms": stats.cpu_ms,
        }
    return out


def test_ablation_scan_policy(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_policy = {row["policy"]: row for row in results}

    print()
    print(render_series(
        "A11: KSM scan policy (pages examined at equal pages_saved)",
        "policy",
        [row["policy"] for row in results],
        {
            "pages saved": [float(row["pages_saved"]) for row in results],
            "pages scanned": [
                float(row["pages_scanned"]) for row in results
            ],
            "log entries drained": [
                float(row["dirty_log_drained"]) for row in results
            ],
            "scanner CPU (ms)": [row["cpu_ms"] for row in results],
        },
    ))

    # Every policy reaches the same steady state...
    expected = int(PAGES_PER_TABLE * SHARED_FRACTION) * (N_TABLES - 1)
    for row in results:
        assert row["pages_saved"] == expected, row
    # ...and dirty tracking examines at least 5x fewer pages.
    full = by_policy["full"]
    incremental = by_policy["incremental"]
    hybrid = by_policy["hybrid"]
    assert incremental["pages_scanned"] * 5 <= full["pages_scanned"]
    assert incremental["cpu_ms"] < full["cpu_ms"]
    # HYBRID sits between the two: cheaper than FULL, dearer than pure
    # incremental (it still walks everything periodically).
    assert hybrid["pages_scanned"] < full["pages_scanned"]
    assert hybrid["pages_scanned"] >= incremental["pages_scanned"]
    # FULL never touches the dirty logs.
    assert full["dirty_log_drained"] == 0
    assert incremental["dirty_log_drained"] > 0

    scenario = _scenario_level_comparison()
    # Through the full pipeline the policies agree on what is saved
    # (identical merge fixpoint) while incremental examines far less.
    assert (
        scenario["incremental"]["pages_saved"]
        == scenario["full"]["pages_saved"]
    )
    assert (
        scenario["incremental"]["pages_scanned"] * 5
        <= scenario["full"]["pages_scanned"]
    )

    payload = {
        "scale": BENCH_SCALE,
        "microbench": by_policy,
        "scenario_daytrader4": scenario,
        "reduction_factor": (
            full["pages_scanned"] / max(1, incremental["pages_scanned"])
        ),
    }
    json_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_scan_policy.json")
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {json_path}: reduction_factor="
          f"{payload['reduction_factor']:.1f}x")
