"""The PowerVM experiment (§V.B, Fig. 6).

Three 3.5 GB AIX LPARs on a POWER7 machine, each running WAS + DayTrader
with a 1 GB heap.  The measurement tooling on AIX cannot produce the
fine-grained breakdowns, so — like the paper — this experiment only uses
the hypervisor's monitoring feature: total physical usage *just after
starting WAS* versus *after PowerVM finishes scanning and sharing pages*,
once without class preloading and once with the cache file copied to all
LPARs.  The paper reports savings of 243.4 MB vs 424.4 MB (+181.0 MB).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict

from repro.config import Benchmark
from repro.core.preload import CacheDeployment, CacheProvisioner
from repro.guestos.kernel import GuestKernel, KernelProfile
from repro.hypervisor.powervm import PowerVmHost
from repro.jvm.jvm import JavaVM
from repro.units import DEFAULT_PAGE_SIZE, GiB, MiB
from repro.workloads.base import Workload, build_workload
from repro.core.experiments.testbed import scale_workload

#: The AIX 6.1 guests boot from the same mksysb image, so their kernel
#: text and clean file cache are identical across LPARs too.
_AIX_KERNEL_PROFILE = KernelProfile(
    image_id="aix6.1-tl6",
    code_bytes=14 * MiB,
    shared_pagecache_bytes=120 * MiB,
    private_data_bytes=110 * MiB,
    buffers_bytes=48 * MiB,
)


@dataclass
class PowerVmCase:
    """One preload setting: before/after totals from PowerVM monitoring."""

    usage_before_bytes: int
    usage_after_bytes: int

    @property
    def saving_bytes(self) -> int:
        return self.usage_before_bytes - self.usage_after_bytes


@dataclass
class PowerVmResult:
    """The whole Fig. 6 dataset."""

    cases: Dict[str, PowerVmCase]  # "preloaded" / "not-preloaded"

    @property
    def preloaded(self) -> PowerVmCase:
        return self.cases["preloaded"]

    @property
    def not_preloaded(self) -> PowerVmCase:
        return self.cases["not-preloaded"]

    @property
    def sharing_increase_bytes(self) -> int:
        """The paper's headline: +181.0 MB of extra sharing."""
        return self.preloaded.saving_bytes - self.not_preloaded.saving_bytes


def _run_case(
    preload: bool,
    guests: int,
    guest_memory_bytes: int,
    workload: Workload,
    settle_ticks: int,
    seed: int,
    page_size: int,
) -> PowerVmCase:
    # The previous case's host is cyclic garbage (each LPAR refers back
    # to its host); free it before this case allocates its own image,
    # as KvmTestbed.build does, instead of holding both at the peak.
    gc.collect()
    host = PowerVmHost(128 * GiB, page_size=page_size, seed=seed)
    deployment = (
        CacheDeployment.SHARED_COPY if preload else CacheDeployment.NONE
    )
    provisioner = CacheProvisioner(
        deployment,
        page_size,
        host.rng.derive("preload"),
        jvm_build_id="ibm-j9-java6-sr9-ppc64",
    )
    kernel_profile = _scaled_aix_profile(guest_memory_bytes)
    for index in range(guests):
        name = f"lpar{index + 1}"
        lpar = host.create_guest(name, guest_memory_bytes)
        kernel = GuestKernel(
            lpar,
            host.rng.derive("guest", name),
            debug_kernel=False,  # AIX: no crash-dump breakdown (§V.B)
        )
        kernel.boot(kernel_profile)
        process = kernel.spawn("java")
        cache = provisioner.cache_for(workload, name)
        jvm_config = workload.jvm_config
        if cache is not None:
            jvm_config = jvm_config.with_sharing(True)
        jvm = JavaVM(
            process,
            jvm_config,
            workload.profile,
            workload.universe(),
            host.rng.derive("jvm", name),
            cache=cache,
            jvm_build_id="ibm-j9-java6-sr9-ppc64",
        )
        jvm.startup()
        for _ in range(settle_ticks):
            jvm.tick()
    usage_before = host.monitor_total_usage_bytes()
    host.run_page_sharing()
    usage_after = host.monitor_total_usage_bytes()
    return PowerVmCase(usage_before, usage_after)


def _scaled_aix_profile(guest_memory_bytes: int) -> KernelProfile:
    """Shrink the AIX kernel profile for scaled-down test guests."""
    full = int(3.5 * GiB)
    if guest_memory_bytes >= full:
        return _AIX_KERNEL_PROFILE
    factor = guest_memory_bytes / full
    profile = _AIX_KERNEL_PROFILE
    scale = lambda value: max(1 << 16, int(value * factor))  # noqa: E731
    return KernelProfile(
        image_id=profile.image_id,
        code_bytes=scale(profile.code_bytes),
        shared_pagecache_bytes=scale(profile.shared_pagecache_bytes),
        private_data_bytes=scale(profile.private_data_bytes),
        buffers_bytes=scale(profile.buffers_bytes),
    )


def run_powervm_experiment(
    guests: int = 3,
    scale: float = 1.0,
    settle_ticks: int = 1,
    seed: int = 20130421,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> PowerVmResult:
    """Run both Fig. 6 cases and return the before/after totals."""
    workload = scale_workload(
        build_workload(Benchmark.DAYTRADER, platform="power"), scale
    )
    guest_memory = max(page_size * 64, int(3.5 * GiB * scale))
    cases = {}
    for label, preload in (("not-preloaded", False), ("preloaded", True)):
        cases[label] = _run_case(
            preload,
            guests,
            guest_memory,
            workload,
            settle_ticks,
            seed,
            page_size,
        )
    return PowerVmResult(cases=cases)
