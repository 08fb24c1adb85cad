"""Ablation A6 (extension) — ballooning vs TPS under host pressure (§VI).

The paper's first related-work alternative: dynamically shrink guests via
a balloon so the guest OS reclaims its own cold memory.  This bench puts
two guests on an undersized host and shows the two mechanisms'
characters: the balloon manager erases the host deficit by *taking*
guest memory (page cache first), while TPS's savings cost the guests
nothing — which is why the paper pursues more TPS rather than ballooning
(KVM also lacks a built-in balloon manager, which this bench supplies).
"""

from conftest import BENCH_SCALE
from repro.config import INTEL_HOST, ScenarioSpec
from repro.core.experiments import scenarios
from repro.core.preload import CacheDeployment
from repro.core.report import render_kv
from repro.hypervisor.balloon import BalloonDriver, BalloonManager
from repro.units import GiB, MiB


def run():
    # Undersized host: two ~1 GB guests on ~1.6 GB of RAM.
    testbed = scenarios.testbed_for(ScenarioSpec(
        "daytrader4",
        CacheDeployment.SHARED_COPY,
        scale=BENCH_SCALE,
        measurement_ticks=2,
        guests=2,
        host_ram_fraction=1.6 * GiB / INTEL_HOST.ram_bytes,
    ))
    testbed.run()
    host = testbed.host

    tps_saved = host.ksm.saved_bytes
    deficit_before = host.physmem.overcommitted_bytes

    manager = BalloonManager(host)
    for name, kernel in testbed.kernels.items():
        manager.attach(BalloonDriver(host.guest(name), kernel))
    plans = manager.rebalance()
    deficit_after = host.physmem.overcommitted_bytes
    ballooned = sum(plan.reclaimed_bytes for plan in plans)
    return tps_saved, deficit_before, deficit_after, ballooned


def test_ablation_ballooning(benchmark):
    tps_saved, deficit_before, deficit_after, ballooned = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    print()
    print(render_kv(
        "A6: ballooning vs TPS on an undersized host (two guests)",
        [
            ("saved by TPS (guests keep their memory)",
             f"{tps_saved / MiB:.1f} MB"),
            ("host deficit before ballooning",
             f"{deficit_before / MiB:.1f} MB"),
            ("reclaimed by balloons (guests lose it)",
             f"{ballooned / MiB:.1f} MB"),
            ("host deficit after ballooning",
             f"{deficit_after / MiB:.1f} MB"),
        ],
    ))

    # The host really was under pressure, TPS alone did not fix it,
    # and the balloon manager closed (most of) the gap.
    assert deficit_before > 0
    assert ballooned > 0
    assert deficit_after < deficit_before
