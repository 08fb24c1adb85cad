"""Ablation A1 — owner-oriented vs distribution-oriented accounting (§II.A).

The paper argues for owner-oriented accounting because a non-primary
process's "shared" tally reads directly as the marginal memory of one more
such process.  This bench runs both policies over one dump of a two-guest
DayTrader testbed and shows: (a) they agree on the physical total, and
(b) only owner-oriented concentrates the whole cost of a shared frame on
one process while PSS smears it.
"""

from conftest import BENCH_SCALE
from repro.core.accounting import (
    UserKind,
    distribution_oriented_accounting,
    owner_oriented_accounting,
)
from repro.core.dump import collect_system_dump
from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    TestbedConfig,
    scale_kernel_profile,
    scale_workload,
)
from repro.core.preload import CacheDeployment
from repro.core.report import render_kv
from repro.units import GiB, MiB
from repro.workloads.base import build_workload
from repro.config import Benchmark


def run():
    workload = scale_workload(
        build_workload(Benchmark.DAYTRADER), BENCH_SCALE
    )
    config = TestbedConfig(
        deployment=CacheDeployment.SHARED_COPY,
        kernel_profile=scale_kernel_profile(BENCH_SCALE),
        measurement_ticks=2,
        scale=BENCH_SCALE,
    )
    if BENCH_SCALE < 1.0:
        config.host_ram_bytes = max(int(6 * GiB * BENCH_SCALE), 64 * MiB)
        config.host_kernel_bytes = int(config.host_kernel_bytes * BENCH_SCALE)
        config.qemu_overhead_bytes = max(
            1 << 16, int(config.qemu_overhead_bytes * BENCH_SCALE)
        )
    specs = [
        GuestSpec(f"vm{i + 1}", max(1, int(GiB * BENCH_SCALE)), workload)
        for i in range(2)
    ]
    testbed = KvmTestbed(specs, config)
    testbed.run()
    dump = collect_system_dump(testbed.host, testbed.kernels)
    owner = owner_oriented_accounting(dump)
    pss = distribution_oriented_accounting(dump)
    return owner, pss


def test_ablation_accounting_policies(benchmark):
    owner, pss = benchmark.pedantic(run, rounds=1, iterations=1)

    java_users = owner.java_users()
    owner_usages = sorted(owner.usage_of(u) for u in java_users)
    pss_usages = sorted(pss.pss_bytes[u] for u in java_users)

    print()
    print(render_kv(
        "A1: owner-oriented vs distribution-oriented (PSS)",
        [
            ("physical total (owner)", f"{owner.total_usage() / MiB:.1f} MB"),
            ("physical total (PSS)", f"{pss.total_pss() / MiB:.1f} MB"),
            ("java usage spread (owner)",
             f"{owner_usages[0] / MiB:.1f} .. {owner_usages[-1] / MiB:.1f} MB"),
            ("java usage spread (PSS)",
             f"{pss_usages[0] / MiB:.1f} .. {pss_usages[-1] / MiB:.1f} MB"),
        ],
    ))

    # (a) Conservation: both policies account the same physical memory.
    assert abs(owner.total_usage() - pss.total_pss()) < 1.0

    # (b) Owner-oriented is maximally skewed: the owner pays everything,
    # the non-primary pays nothing for shared frames.  PSS is flatter.
    owner_gap = owner_usages[-1] - owner_usages[0]
    pss_gap = pss_usages[-1] - pss_usages[0]
    assert owner_gap > 1.5 * pss_gap

    # (c) The owner-oriented non-primary "shared" tally directly reads as
    # the marginal cost discount of one more VM.
    non_primary = max(java_users, key=owner.shared_of)
    assert owner.shared_of(non_primary) > 0
    assert owner.usage_of(non_primary) + owner.shared_of(non_primary) == (
        owner.total_of(non_primary)
    )
