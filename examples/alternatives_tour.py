#!/usr/bin/env python3
"""A tour of the §VI alternatives, all runnable against one simulator.

The paper's related-work section compares Transparent Page Sharing with
four other ways to stretch host memory.  This example runs each of them
on the same two-guest DayTrader setup and prints a one-screen comparison:

1. TPS + class preloading — the paper's approach;
2. Satori — share page-cache fills at disk-read time, no scanning;
3. compressed paging-to-RAM (Difference Engine / AME) — bigger savings,
   but every access to a compressed page pays a restore;
4. ballooning — reclaim guest memory outright (needs an external manager
   on KVM);
5. multi-tenancy (MVM) — one middleware instance, applications isolated
   inside it.

Run:
    python examples/alternatives_tour.py [scale]
"""

import sys

from repro import (
    BalloonDriver,
    BalloonManager,
    CacheDeployment,
    CompressedRamStore,
    MultiTenantJavaVM,
    ScenarioSpec,
    TenantSpec,
)
from repro.config import INTEL_HOST, Benchmark
from repro.core.experiments.scenarios import testbed_for
from repro.core.experiments.testbed import scale_workload, sizes_for
from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost
from repro.units import GiB, MiB
from repro.workloads import build_workload


def two_guest_spec(scale, host_ram_fraction=1.0):
    return ScenarioSpec(
        "daytrader4",
        CacheDeployment.SHARED_COPY,
        scale=scale,
        measurement_ticks=2,
        guests=2,
        host_ram_fraction=host_ram_fraction,
    )


def build_testbed(scale, satori=False, host_ram_fraction=1.0):
    testbed = testbed_for(two_guest_spec(scale, host_ram_fraction))
    if satori:
        testbed.host.enable_satori()
    return testbed


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05

    # 1. TPS + preloading (the paper).
    testbed = build_testbed(scale)
    testbed.run()
    tps_saved = testbed.host.ksm.saved_bytes
    print(f"1. TPS + class preloading: {tps_saved / MiB:6.1f} MB saved, "
          "free to read, guests keep their memory")

    # 2. Satori: sharing at fill time, before any scanning.
    satori_bed = build_testbed(scale, satori=True)
    satori_bed.build()
    print(f"2. Satori block device:    "
          f"{satori_bed.host.satori.saved_bytes() / MiB:6.1f} MB shared at "
          "disk-read time, zero scanner CPU")

    # 3. Compressed paging-to-RAM on what TPS could not share.
    store = CompressedRamStore(testbed.host.physmem)
    compressed_saved = 0
    for vm in testbed.host.guests:
        compressed_saved += store.sweep(vm.page_table)
    print(f"3. Compressed RAM pool:    {compressed_saved / MiB:6.1f} MB "
          f"saved on top, but every access costs "
          f"{store.decompress_us:.0f} us to restore")

    # 4. Ballooning under pressure (undersized host, ~1.6 GB).
    pressured = build_testbed(
        scale, host_ram_fraction=1.6 * GiB / INTEL_HOST.ram_bytes
    )
    pressured.run()
    manager = BalloonManager(pressured.host)
    for name, kernel in pressured.kernels.items():
        manager.attach(BalloonDriver(pressured.host.guest(name), kernel))
    before = pressured.host.physmem.overcommitted_bytes
    plans = manager.rebalance()
    reclaimed = sum(plan.reclaimed_bytes for plan in plans)
    print(f"4. Ballooning:             {reclaimed / MiB:6.1f} MB reclaimed "
          f"(host deficit {before / MiB:.0f} MB -> "
          f"{pressured.host.physmem.overcommitted_bytes / MiB:.0f} MB), "
          "taken FROM the guests")

    # 5. Multi-tenancy: one middleware for three applications.
    sizes = sizes_for(two_guest_spec(scale))
    host = KvmHost(sizes.host_ram_bytes, seed=20130421)
    vm = host.create_guest("mt", max(1, int(2 * GiB * scale)))
    kernel = GuestKernel(vm, host.rng.derive("guest", "mt"))
    kernel.boot(sizes.kernel_profile)
    workload = scale_workload(build_workload(Benchmark.DAYTRADER), scale)
    server = MultiTenantJavaVM(
        kernel.spawn("mt-server"),
        workload.profile,
        workload.universe(),
        host.rng.derive("mt"),
    )
    server.startup()
    for index in range(3):
        server.add_tenant(
            TenantSpec(f"app{index}", workload.jvm_config.heap_bytes)
        )
    print(f"5. Multi-tenant server:    {host.physmem.bytes_in_use / MiB:6.1f} "
          "MB hosts 3 applications in one process "
          "(weakest isolation of the five)")


if __name__ == "__main__":
    main()
