"""repro: a reproduction of *Increasing the Transparent Page Sharing in
Java* (Ogata & Onodera, ISPASS 2013).

The package simulates the paper's entire stack at page granularity — host
physical memory, the KVM and PowerVM hypervisors, the KSM scanner, Linux
guests, a JVM memory model with class sharing — and re-runs the paper's
dump-based memory-forensics pipeline and every figure's experiment on top
of it.

Quick start::

    from repro import (
        CacheDeployment, ScenarioSpec, render_java_breakdown, run,
    )

    spec = ScenarioSpec("daytrader4", CacheDeployment.SHARED_COPY,
                        scale=0.1)
    print(render_java_breakdown(run(spec).java_breakdown, "Fig. 5(a)"))

Every experiment family is a grid of ``(measure, spec)`` cells run by
``run_grid``, the one cache-and-fan-out path.

See ``examples/quickstart.py`` for a guided tour and ``DESIGN.md`` for the
system inventory.
"""

from repro.config import (
    Benchmark,
    GcPolicy,
    GuestConfig,
    HostConfig,
    HugePageSettings,
    JvmConfig,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
    WorkloadConfig,
)
from repro.core.accounting import (
    OwnerAccounting,
    PssAccounting,
    UserKey,
    UserKind,
    distribution_oriented_accounting,
    owner_oriented_accounting,
)
from repro.core.breakdown import (
    JavaBreakdown,
    VmBreakdown,
    java_breakdown,
    vm_breakdown,
)
from repro.core.categories import MemoryCategory, categorize_tag
from repro.core.dump import SystemDump, collect_system_dump
from repro.core.experiments import (
    ConsolidationResult,
    GuestSpec,
    HugePageCurveResult,
    KvmTestbed,
    PowerVmResult,
    PressureFamilyResult,
    ScenarioResult,
    TestbedConfig,
    run,
    run_cached,
    run_daytrader_consolidation,
    run_grid,
    run_hugepage_tradeoff,
    run_powervm_experiment,
    run_pressure_family,
    run_specj_consolidation,
    scale_workload,
)
from repro.exec import (
    ParallelRunner,
    ResultCache,
    WorkUnit,
    default_cache,
)
from repro.core.preload import (
    BaseImageCache,
    CacheDeployment,
    CacheProvisioner,
    build_cache_for_image,
)
from repro.core.report import (
    render_java_breakdown,
    render_series,
    render_vm_breakdown,
)
from repro.datacenter import (
    Datacenter,
    FirstFitPolicy,
    MemoryFingerprint,
    SharingAwarePolicy,
)
from repro.hypervisor import KvmHost, PowerVmHost
from repro.hypervisor.balloon import BalloonDriver, BalloonManager
from repro.hypervisor.satori import SatoriRegistry
from repro.jvm import JavaVM, SharedClassCache
from repro.jvm.multitenant import MultiTenantJavaVM, TenantSpec
from repro.ksm import KsmConfig, KsmScanner, KsmStats, ScanPolicy
from repro.mem.compression import CompressedRamStore
from repro.mem.workingset import WorkingSetEstimator
from repro.tiering import TieringEngine
from repro.workloads import Workload, build_workload

__version__ = "9.0.0"

__all__ = [
    # configuration
    "Benchmark",
    "GcPolicy",
    "GuestConfig",
    "HostConfig",
    "JvmConfig",
    "HugePageSettings",
    "KsmSettings",
    "ScenarioSpec",
    "TieringSettings",
    "WorkloadConfig",
    # substrates
    "KvmHost",
    "PowerVmHost",
    "KsmConfig",
    "KsmScanner",
    "KsmStats",
    "ScanPolicy",
    "JavaVM",
    "SharedClassCache",
    "Workload",
    "build_workload",
    # analysis pipeline
    "MemoryCategory",
    "categorize_tag",
    "SystemDump",
    "collect_system_dump",
    "OwnerAccounting",
    "PssAccounting",
    "UserKey",
    "UserKind",
    "owner_oriented_accounting",
    "distribution_oriented_accounting",
    "JavaBreakdown",
    "VmBreakdown",
    "java_breakdown",
    "vm_breakdown",
    # preloading technique
    "BaseImageCache",
    "CacheDeployment",
    "CacheProvisioner",
    "build_cache_for_image",
    # experiments
    "GuestSpec",
    "KvmTestbed",
    "TestbedConfig",
    "ScenarioResult",
    "run",
    "run_cached",
    "run_grid",
    "HugePageCurveResult",
    "run_hugepage_tradeoff",
    "PowerVmResult",
    "run_powervm_experiment",
    "ConsolidationResult",
    "run_daytrader_consolidation",
    "run_specj_consolidation",
    "PressureFamilyResult",
    "run_pressure_family",
    "scale_workload",
    # reporting
    "render_vm_breakdown",
    "render_java_breakdown",
    "render_series",
    # execution engine (parallel runner + result cache)
    "ParallelRunner",
    "WorkUnit",
    "ResultCache",
    "default_cache",
    # related-work systems (§VI), built as working subsystems
    "BalloonDriver",
    "BalloonManager",
    "SatoriRegistry",
    "CompressedRamStore",
    # working-set tiering (ROADMAP item 2)
    "WorkingSetEstimator",
    "TieringEngine",
    "MultiTenantJavaVM",
    "TenantSpec",
    "Datacenter",
    "FirstFitPolicy",
    "SharingAwarePolicy",
    "MemoryFingerprint",
    "__version__",
]
