"""The KVM testbed: build guests, run the measurement window, analyse.

Reproduces the paper's §II.C methodology end to end:

1. build a KVM host with the Table-I RAM and the Table-II KSM settings;
2. boot N guests from the same base image, start system daemons, start a
   WAS (or Tuscany) process per guest, optionally provisioning a shared
   class cache per the chosen deployment;
3. warm up — KSM runs at the boosted 10 000-pages/cycle setting until the
   sharing converges (the paper boosts for the first three minutes);
4. run the measurement window at 1 000 pages/cycle, with the workloads
   dirtying memory between scan intervals;
5. collect the three-layer system dump and run the accounting.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config import (
    HugePageSettings,
    JvmConfig,
    KsmSettings,
    TieringSettings,
)
from repro.core.accounting import (
    OwnerAccounting,
    apply_degradation,
    owner_oriented_accounting,
)
from repro.core.breakdown import (
    JavaBreakdown,
    VmBreakdown,
    java_breakdown,
    vm_breakdown,
)
from repro.core.dump import SystemDump, collect_system_dump
from repro.core.preload import CacheDeployment, CacheProvisioner
from repro.core.validate import (
    ValidationReport,
    validate_dump,
    validate_thp,
)
from repro.faults.plan import FaultPlan
from repro.guestos.kernel import GuestKernel, KernelProfile
from repro.guestos.pagecache import BackingFile
from repro.hypervisor.kvm import KvmHost
from repro.jvm.jvm import JavaVM
from repro.ksm.scanner import KsmConfig
from repro.ksm.stats import KsmStats
from repro.sim.rng import mix64_many, stable_hash64
from repro.units import DEFAULT_PAGE_SIZE, GiB, MiB
from repro.workloads.base import Workload


@dataclass(frozen=True)
class GuestSpec:
    """One guest VM to build."""

    name: str
    memory_bytes: int
    workload: Workload


@dataclass
class TestbedConfig:
    """Host-level knobs; defaults are the paper's Intel platform."""

    __test__ = False  # not a pytest test class, despite the name

    host_ram_bytes: int = 6 * GiB
    page_size: int = DEFAULT_PAGE_SIZE
    seed: int = 20130421
    deployment: CacheDeployment = CacheDeployment.NONE
    host_kernel_bytes: int = 300 * MiB
    qemu_overhead_bytes: int = 40 * MiB
    kernel_profile: Optional[KernelProfile] = None
    ksm: KsmSettings = field(default_factory=KsmSettings)
    measurement_ticks: int = 6
    tick_minutes: float = 2.0
    system_processes: bool = True
    #: Size factor applied to the system daemons (set alongside
    #: ``scale_workload`` when building shrunk test configurations).
    scale: float = 1.0
    #: Working-set tiering; None leaves the engine out entirely.
    tiering: Optional[TieringSettings] = None
    #: Transparent-huge-page policy; None (or policy "never") keeps
    #: every mapping at 4 KiB, the paper's configuration.
    hugepages: Optional[HugePageSettings] = None


@dataclass
class MeasurementResult:
    """Everything a figure needs from one testbed run."""

    vm_breakdown: VmBreakdown
    java_breakdown: JavaBreakdown
    accounting: OwnerAccounting
    ksm_stats: KsmStats
    dump: SystemDump
    #: Cross-layer validation (run when fault injection is active).
    validation: Optional[ValidationReport] = None


def scale_workload(workload: Workload, factor: float) -> Workload:
    """A size-scaled copy of a workload (used by the fast test configs).

    All byte quantities, class counts and thread counts shrink by
    ``factor``; behavioural fractions are untouched, so sharing *ratios*
    are preserved while runs get cheap.
    """
    if factor <= 0 or factor > 1:
        raise ValueError("scale factor must be in (0, 1]")
    if factor == 1.0:
        return workload

    def scale_bytes(value: int, minimum: int = 4096) -> int:
        return max(minimum, int(value * factor))

    profile = workload.profile
    scaled_profile = dataclasses.replace(
        profile,
        middleware_classes=max(8, int(profile.middleware_classes * factor)),
        jcl_classes=max(4, int(profile.jcl_classes * factor)),
        app_classes=max(2, int(profile.app_classes * factor)),
        jit_code_bytes=scale_bytes(profile.jit_code_bytes),
        jit_work_bytes=scale_bytes(profile.jit_work_bytes),
        gc_zero_tail_bytes=scale_bytes(profile.gc_zero_tail_bytes),
        nio_buffer_bytes=scale_bytes(profile.nio_buffer_bytes),
        zero_slack_bytes=scale_bytes(profile.zero_slack_bytes),
        private_work_bytes=scale_bytes(profile.private_work_bytes),
        code_file_bytes=scale_bytes(profile.code_file_bytes),
        code_data_bytes=scale_bytes(profile.code_data_bytes),
        thread_count=max(2, int(profile.thread_count * factor)),
    )
    # The cache header is a fixed cost; scale only the class-storage body
    # so the "cacheable ROM fits the cache" invariant survives any factor.
    from repro.jvm.sharedcache import HEADER_BYTES

    cache_body = max(
        0, workload.jvm_config.shared_cache_bytes - HEADER_BYTES
    )
    scaled_cache = HEADER_BYTES + scale_bytes(cache_body, minimum=256 * 1024)
    jvm_config = dataclasses.replace(
        workload.jvm_config,
        heap_bytes=scale_bytes(workload.jvm_config.heap_bytes),
        shared_cache_bytes=scaled_cache,
        nursery_bytes=(
            scale_bytes(workload.jvm_config.nursery_bytes)
            if workload.jvm_config.nursery_bytes
            else None
        ),
        tenured_bytes=(
            scale_bytes(workload.jvm_config.tenured_bytes)
            if workload.jvm_config.tenured_bytes
            else None
        ),
    )
    return Workload(scaled_profile, jvm_config, workload.driver_config)


def scale_kernel_profile(factor: float) -> KernelProfile:
    profile = KernelProfile()
    if factor >= 1.0:
        return profile
    return KernelProfile(
        image_id=profile.image_id,
        code_bytes=max(1 << 16, int(profile.code_bytes * factor)),
        shared_pagecache_bytes=max(
            1 << 16, int(profile.shared_pagecache_bytes * factor)
        ),
        private_data_bytes=max(
            1 << 16, int(profile.private_data_bytes * factor)
        ),
        buffers_bytes=max(1 << 16, int(profile.buffers_bytes * factor)),
    )


def _collector_paused(method):
    """Run a testbed phase with CPython's cyclic garbage collector off.

    A testbed holds 10^5-10^6 long-lived objects (frames, page owners,
    unstable-tree nodes) that the collector would otherwise re-walk
    every few hundred allocations.  The premise is that no cyclic
    garbage is created while a testbed builds, runs and measures: what
    it allocates is either freed by reference counting or stays
    reachable until the testbed itself dies.  A dead testbed is cyclic
    (host and guests, kernels and processes, page-table dirty sinks and
    the scanner refer to each other), so :meth:`KvmTestbed.build`
    begins with one collection, which frees the previous testbed before
    the next image is allocated.

    Phases nest (``measure`` calls ``run``, which calls ``build``);
    only the outermost call that found the collector enabled enables
    it again, in a ``finally`` so a phase that raises still does, and a
    caller that disabled the collector itself finds it disabled
    afterwards.  Collector state is process-wide: testbeds fan out over
    processes (:class:`repro.exec.runner.ParallelRunner`), not threads,
    and two threads sharing a process would lose only speed, never
    correctness.
    """

    @functools.wraps(method)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return method(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


class KvmTestbed:
    """Builds and drives one multi-guest KVM measurement.

    ``build``, ``run`` and ``measure`` run with the cyclic garbage
    collector paused (see :func:`_collector_paused`).
    """

    def __init__(
        self,
        specs: List[GuestSpec],
        config: Optional[TestbedConfig] = None,
        profiler=None,
    ) -> None:
        if not specs:
            raise ValueError("a testbed needs at least one guest")
        self.specs = specs
        self.config = config or TestbedConfig()
        #: Optional :class:`repro.perf.PhaseProfiler`; when set, build,
        #: warm-up, workload, tiering, scan, dump and accounting phases
        #: accumulate wall/CPU cost into it.
        self.profiler = profiler
        cfg = self.config
        self.host = KvmHost(
            cfg.host_ram_bytes,
            page_size=cfg.page_size,
            ksm_config=KsmConfig(
                pages_to_scan=cfg.ksm.pages_to_scan,
                sleep_millisecs=cfg.ksm.sleep_millisecs,
                scan_policy=cfg.ksm.scan_policy,
            ),
            seed=cfg.seed,
        )
        self.host.allocate_host_kernel(cfg.host_kernel_bytes)
        self.kernels: Dict[str, GuestKernel] = {}
        self.jvms: Dict[str, JavaVM] = {}
        self._provisioner = CacheProvisioner(
            cfg.deployment, cfg.page_size, self.host.rng.derive("preload")
        )
        #: Created during build() when config.tiering is set.
        self.tiering = None
        self._built = False
        self._ran = False

    # ------------------------------------------------------------------

    @_collector_paused
    def build(self) -> None:
        """Boot every guest and start its server process.

        Begins with one full collection, even when nested in ``run``:
        it frees any earlier testbed that is no longer referenced.
        """
        if self._built:
            raise RuntimeError("testbed already built")
        gc.collect()
        cfg = self.config
        for spec in self.specs:
            vm = self.host.create_guest(spec.name, spec.memory_bytes)
            kernel = GuestKernel(vm, self.host.rng.derive("guest", spec.name))
            kernel.boot(cfg.kernel_profile)
            self.kernels[spec.name] = kernel
            if cfg.system_processes:
                self._spawn_system_processes(kernel)
            java_process = kernel.spawn("java")
            cache = self._provisioner.cache_for(spec.workload, spec.name)
            jvm_config: JvmConfig = spec.workload.jvm_config
            if cache is not None:
                jvm_config = jvm_config.with_sharing(True)
            jvm = JavaVM(
                java_process,
                jvm_config,
                spec.workload.profile,
                spec.workload.universe(),
                self.host.rng.derive("jvm", spec.name),
                cache=cache,
            )
            jvm.startup()
            self.jvms[spec.name] = jvm
            vm.allocate_overhead(cfg.qemu_overhead_bytes)
            kernel.enable_thp(cfg.hugepages)
        if self._thp_enabled:
            # Initial collapse pass: under "always" the boot-time image
            # is huge-backed before KSM ever sees it (the THP-first
            # ordering real kernels exhibit); "khugepaged" waits for
            # heat, so this pass is a no-op there.
            for kernel in self.kernels.values():
                kernel.thp_tick()
        if cfg.tiering is not None:
            from repro.tiering import TieringEngine

            self.tiering = TieringEngine(self.host, self.kernels, cfg.tiering)
        self._built = True

    @property
    def _thp_enabled(self) -> bool:
        cfg = self.config
        return cfg.hugepages is not None and cfg.hugepages.enabled

    def _spawn_system_processes(self, kernel: GuestKernel) -> None:
        """sshd + rsyslogd: small daemons from the base image.

        Their binaries come from the common disk image (cross-VM
        shareable); their heaps are private.
        """
        image_id = (
            kernel.profile.image_id
            if hasattr(kernel, "profile")
            else "rhel5.5-base"
        )
        page_size = kernel.page_size
        factor = self.config.scale
        for name, file_mb, anon_mb in (("sshd", 4, 5), ("rsyslogd", 3, 6)):
            process = kernel.spawn(name)
            file_bytes = max(page_size, int(file_mb * MiB * factor))
            anon_bytes = max(page_size, int(anon_mb * MiB * factor))
            backing = BackingFile(
                f"{image_id}:/usr/sbin/{name}", file_bytes, page_size
            )
            vma = process.mmap_file(backing, f"{name}:text")
            process.fault_file_pages(vma)
            anon = process.mmap_anon(anon_bytes, f"{name}:heap")
            stream = kernel.rng.stream("daemon", kernel.vm.name, name)
            key = stable_hash64("daemon", kernel.vm.name, name)
            draws = [stream.getrandbits(32) for _ in range(anon.npages)]
            process.write_tokens(
                anon, mix64_many(key, np.arange(anon.npages), draws)
            )

    # ------------------------------------------------------------------

    def warmup(self) -> None:
        """The boosted KSM warm-up (10 000 pages/cycle, §II.C).

        The paper runs the boost for three wall-clock minutes; we run the
        boosted scanner until sharing converges, which covers the same
        pages in far less simulated bookkeeping.
        """
        scanner = self.host.ksm
        normal = scanner.config.pages_to_scan
        scanner.config.pages_to_scan = self.config.ksm.warmup_pages_to_scan
        scanner.run_until_converged(max_passes=8)
        scanner.config.pages_to_scan = normal

    def _phase(self, name: str):
        """A profiler stopwatch for ``name`` (no-op when unprofiled)."""
        if self.profiler is None:
            from contextlib import nullcontext

            return nullcontext()
        return self.profiler.phase(name)

    @_collector_paused
    def run(self) -> None:
        """The measurement window: workload ticks interleaved with KSM."""
        if not self._built:
            with self._phase("build"):
                self.build()
        if self._ran:
            raise RuntimeError("testbed already ran")
        if self.config.ksm.enabled:
            with self._phase("warmup"):
                self.warmup()
        tick_ms = int(self.config.tick_minutes * 60_000)
        for _ in range(self.config.measurement_ticks):
            with self._phase("workload"):
                for jvm in self.jvms.values():
                    jvm.tick()
            if self.tiering is not None:
                with self._phase("tiering"):
                    self.tiering.tick()
            if self._thp_enabled:
                with self._phase("thp"):
                    for kernel in self.kernels.values():
                        kernel.thp_tick()
            if self.config.ksm.enabled:
                with self._phase("scan"):
                    self.host.ksm.run_for_ms(tick_ms)
            else:
                # Keep the simulated clock comparable across arms.
                self.host.clock.advance(tick_ms)
        self._ran = True

    @_collector_paused
    def measure(
        self, faults: Optional[FaultPlan] = None
    ) -> MeasurementResult:
        """Collect the dump and run the paper's analysis pipeline.

        With a fault plan, collection is resilient (quarantined guests
        are dropped, the run continues with the survivors), the dump is
        validated, and the accounting carries explicit bounds for
        whatever the damage made unattributable.
        """
        if not self._ran:
            self.run()
        with self._phase("dump"):
            dump = collect_system_dump(
                self.host, self.kernels, faults=faults
            )
        with self._phase("accounting"):
            # Under a fault plan the guard reads the accounting's rows.
            rows = None if faults is None else []
            accounting = owner_oriented_accounting(dump, mapping_fids=rows)
            validation = None
            if faults is not None:
                validation = validate_dump(dump, rows)
                apply_degradation(
                    accounting, dump, validation, dump.collection
                )
        ksm_stats = self.host.ksm.snapshot_stats()
        if self._thp_enabled:
            physmem = self.host.physmem
            ksm_stats.extra["thp"] = {
                "block_pages": self.config.hugepages.block_pages,
                "policy": self.config.hugepages.policy,
                "intact_blocks": physmem.blocks_intact,
                "huge_pages": physmem.huge_backed_pages,
                "guest_pages": sum(
                    kernel.vm.guest_npages
                    for kernel in self.kernels.values()
                ),
                "blocks_formed": physmem.blocks_formed,
                "blocks_split": physmem.blocks_split,
                "splits_by_reason": dict(
                    sorted(physmem.block_splits_by_reason.items())
                ),
            }
            thp_report = validate_thp(physmem)
            if validation is None:
                validation = thp_report
            else:
                validation.findings.extend(thp_report.findings)
                validation.sort()
        return MeasurementResult(
            vm_breakdown=vm_breakdown(accounting),
            java_breakdown=java_breakdown(accounting),
            accounting=accounting,
            ksm_stats=ksm_stats,
            dump=dump,
            validation=validation,
        )
