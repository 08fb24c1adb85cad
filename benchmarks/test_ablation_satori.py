"""Ablation A8 (extension) — Satori fills vs KSM scanning (§VI).

Satori shares page-cache pages *at disk-read time*; KSM finds the same
pages by scanning.  Because the paper's technique turns the class area
into a file (the shared class cache), Satori-style sharing covers it too.
This bench boots two preloaded DayTrader guests twice — once with only
KSM, once with the sharing-aware block device — and compares how much
sharing exists *before any scanning* and how much scanner work the
remaining memory still needs.
"""

from conftest import BENCH_SCALE
from repro.config import ScenarioSpec
from repro.core.experiments import scenarios
from repro.core.preload import CacheDeployment
from repro.core.report import render_kv
from repro.units import MiB

SCALE = min(BENCH_SCALE, 0.2)


def _build(satori: bool):
    testbed = scenarios.testbed_for(ScenarioSpec(
        "daytrader4",
        CacheDeployment.SHARED_COPY,
        scale=SCALE,
        measurement_ticks=1,
        guests=2,
    ))
    if satori:
        testbed.host.enable_satori()
    testbed.build()
    return testbed


def run():
    ksm_only = _build(satori=False)
    with_satori = _build(satori=True)
    shared_at_boot = with_satori.host.satori.saved_bytes()
    # Now let both scanners converge and compare the scanning work left.
    ksm_only.host.ksm.run_until_converged()
    with_satori.host.ksm.run_until_converged()
    return {
        "satori_shared_at_boot": shared_at_boot,
        "satori_fills": with_satori.host.satori.fills,
        "ksm_only_scanned": ksm_only.host.ksm.stats.pages_scanned,
        "ksm_only_saved": ksm_only.host.ksm.saved_bytes,
        "with_satori_scanned": with_satori.host.ksm.stats.pages_scanned,
        "total_saved_ksm_only": ksm_only.host.ksm.saved_bytes,
        "total_saved_with_satori": (
            with_satori.host.ksm.saved_bytes + shared_at_boot
        ),
    }


def test_ablation_satori(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_kv(
        "A8: KSM scanning vs Satori sharing-aware block device",
        [
            ("shared by Satori before any scanning",
             f"{results['satori_shared_at_boot'] / MiB:.1f} MB"),
            ("KSM-only pages scanned to converge",
             str(results["ksm_only_scanned"])),
            ("KSM-only total saved",
             f"{results['total_saved_ksm_only'] / MiB:.1f} MB"),
            ("with-Satori total saved",
             f"{results['total_saved_with_satori'] / MiB:.1f} MB"),
        ],
    ))

    # Satori shares a meaningful slice (kernel boot cache + code files +
    # the class-cache file) with zero scanner work...
    assert results["satori_shared_at_boot"] > 0
    # ...and the combined savings come out comparable to pure KSM (both
    # find the same identical pages in the end).
    ratio = (
        results["total_saved_with_satori"]
        / results["total_saved_ksm_only"]
    )
    assert 0.8 < ratio < 1.3