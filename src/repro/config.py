"""Configuration presets encoding the paper's Tables I–III.

Every experiment in the paper is parameterised by three tables:

* **Table I** — the physical machines (Intel/KVM host with 6 GB RAM;
  POWER7/PowerVM host with 128 GB).
* **Table II** — the guest VM configuration (1.00 GB guests for DayTrader,
  TPC-W and Tuscany; 1.25 GB for SPECjEnterprise 2010; 3.5 GB AIX guests on
  POWER; KSM at 1 000 pages per scan / 100 ms).
* **Table III** — the Java applications and JVM settings (heap sizes,
  shared-class-cache sizes, client threads / injection rate).

The dataclasses below carry those numbers; the ``*_PRESET`` constants are
the exact paper configurations, used by the benchmark harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.units import GiB, MiB

#: The KSM scan engine a run uses unless told otherwise: "batch", the
#: columnar engine of :mod:`repro.ksm.batch`.  "object", the per-page
#: scanner, gives identical results and stays as an opt-in reference.
DEFAULT_SCAN_ENGINE = "batch"

#: The dump-analysis backend a run uses unless told otherwise.
#: ``repro.core.columnar.backend.resolve_backend`` turns "columnar" into
#: numpy when importable and the stdlib fallback otherwise; "dict", the
#: per-page walk, gives identical results and stays as an opt-in
#: reference.
DEFAULT_BACKEND = "columnar"


class GcPolicy(enum.Enum):
    """J9 garbage-collection policies used in the paper."""

    #: Flat heap, parallel mark-sweep with compaction (J9 -Xgcpolicy:optthruput).
    OPTTHRUPUT = "optthruput"
    #: Generational-concurrent: nursery copy-collect + tenured (J9 gencon).
    GENCON = "gencon"


class Benchmark(enum.Enum):
    """Workloads measured in the paper (plus SPECjbb from its §VI
    discussion of Memory Buddies)."""

    DAYTRADER = "daytrader"
    SPECJENTERPRISE = "specjenterprise2010"
    TPCW = "tpcw"
    TUSCANY_BIGBANK = "tuscany-bigbank"
    SPECJBB = "specjbb2005"


@dataclass(frozen=True)
class HostConfig:
    """Table I: a physical machine."""

    name: str
    ram_bytes: int
    cpu_description: str
    hypervisor: str  # "kvm" or "powervm"
    host_os: str = ""
    debug_kernel: bool = True

    def __post_init__(self) -> None:
        if self.ram_bytes <= 0:
            raise ValueError("host RAM must be positive")
        if self.hypervisor not in ("kvm", "powervm"):
            raise ValueError(f"unknown hypervisor {self.hypervisor!r}")


@dataclass(frozen=True)
class KsmSettings:
    """Table II / §II.C: KSM scanner settings, including the warm-up boost.

    The paper scans 10 000 pages per cycle for the first three minutes
    (server start + scenario initialisation) and 1 000 afterwards; the
    sleep interval is 100 ms throughout.
    """

    pages_to_scan: int = 1000
    sleep_millisecs: int = 100
    warmup_pages_to_scan: int = 10000
    warmup_minutes: float = 3.0
    #: Scan policy ("full", "incremental" or "hybrid"); "full" is the
    #: paper's configuration, the others use PML-style dirty tracking.
    scan_policy: str = "full"
    #: Scan engine ("batch", the columnar engine, or "object", the
    #: per-page reference scanner — identical results).
    scan_engine: str = DEFAULT_SCAN_ENGINE


#: Tiering modes accepted by :class:`TieringSettings` and the CLI.
TIERING_MODES = ("off", "hints", "compress", "balloon", "combined")


@dataclass(frozen=True)
class TieringSettings:
    """Working-set-driven memory tiering (ROADMAP item 2).

    Drives :class:`repro.tiering.TieringEngine`: every ``epoch_ticks``
    workload ticks the PML-style dirty logs are folded into the
    working-set estimator, and the selected actions run on the resulting
    hot/cold split.

    ``mode`` selects which actions are active:

    * ``"off"`` — estimator only (queries still work, nothing acts);
    * ``"hints"`` — feed cold regions to the KSM scanner's incremental
      policies;
    * ``"compress"`` — compress cold pages into the host pool;
    * ``"balloon"`` — balloon guests proportionally to their cold bytes;
    * ``"combined"`` — hints + compress + balloon together.
    """

    mode: str = "off"
    epoch_ticks: int = 2
    decay: float = 0.75
    hot_threshold: float = 1.0
    #: Max pages compressed per epoch across all guests (0 = unlimited).
    compress_pages_per_epoch: int = 512
    #: Only act when the host is within this many bytes of capacity
    #: (0 = act on any pressure; negative never happens).
    pressure_reserve_bytes: int = 0
    #: Guest-allocatable pages the balloon must leave behind.
    balloon_min_free_pages: int = 64

    def __post_init__(self) -> None:
        if self.mode not in TIERING_MODES:
            raise ValueError(
                f"unknown tiering mode {self.mode!r}; "
                f"expected one of {TIERING_MODES}"
            )
        if self.epoch_ticks <= 0:
            raise ValueError("epoch_ticks must be positive")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if self.hot_threshold <= 0.0:
            raise ValueError("hot_threshold must be positive")
        if self.compress_pages_per_epoch < 0:
            raise ValueError("compress_pages_per_epoch must be >= 0")
        if self.balloon_min_free_pages < 0:
            raise ValueError("balloon_min_free_pages must be >= 0")

    @property
    def hints_enabled(self) -> bool:
        return self.mode in ("hints", "combined")

    @property
    def compress_enabled(self) -> bool:
        return self.mode in ("compress", "combined")

    @property
    def balloon_enabled(self) -> bool:
        return self.mode in ("balloon", "combined")


#: THP policies accepted by :class:`HugePageSettings` and the CLI
#: (mirrors ``/sys/kernel/mm/transparent_hugepage/enabled``).
THP_POLICIES = ("never", "always", "khugepaged")


@dataclass(frozen=True)
class HugePageSettings:
    """THP-style huge-page policy for the guest kernels.

    * ``"never"`` — all mappings stay 4 KiB (the paper's world);
    * ``"always"`` — every eligible aligned, fully-mapped range is
      collapsed into a huge block each THP tick;
    * ``"khugepaged"`` — only ranges whose pages are hot per the
      working-set histogram are collapsed (collapse-on-dirty), and
      blocks whose subpages KSM wants to merge are split
      (split-on-KSM-merge) — the split/collapse tension the trade-off
      curve measures.
    """

    policy: str = "never"
    #: 4 KiB pages per huge block (512 = a 2 MiB x86 PMD).
    block_pages: int = 512
    #: khugepaged only: collapse a range when at least this fraction of
    #: its pages is hot in the working-set histogram.
    collapse_hot_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.policy not in THP_POLICIES:
            raise ValueError(
                f"unknown THP policy {self.policy!r}; "
                f"expected one of {THP_POLICIES}"
            )
        if self.block_pages < 2 or self.block_pages & (self.block_pages - 1):
            raise ValueError("block_pages must be a power of two >= 2")
        if not 0.0 < self.collapse_hot_fraction <= 1.0:
            raise ValueError("collapse_hot_fraction must be in (0, 1]")

    @property
    def enabled(self) -> bool:
        return self.policy != "never"


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified scenario run (the unified experiment API).

    Composes every knob that accumulated across the CLI and the three
    ``run_scenario*`` entry points — KSM settings, tiering, huge pages,
    the accounting backend, fault plan and parallelism — into a single
    frozen value that fingerprints itself for the result cache.

    Construction paths:

    * :meth:`from_cli_args` — from an argparse namespace produced by
      ``repro.cli.add_scenario_options``;
    * direct keyword construction in tests and experiment drivers.

    ``repro.core.experiments.scenarios.run`` is the one entry point
    consuming a spec; ``run_scenario`` / ``run_scenario_request`` /
    ``run_scenario_cached`` are deprecation shims over it.

    Cache compatibility: for configurations expressible in the legacy
    ``ScenarioRequest`` vocabulary (huge pages off, default KSM pacing,
    default tiering shape), :meth:`cache_parts` reproduces the legacy
    request's parts exactly, so fingerprints — and therefore every
    previously cached result — are unchanged.  ``jobs`` never enters
    the fingerprint (parallel runs are bit-identical to serial).
    """

    scenario: str
    #: A ``repro.core.preload.CacheDeployment`` member, or None for
    #: CacheDeployment.NONE (kept untyped here to avoid an import
    #: cycle; normalize via :attr:`resolved_deployment`).
    deployment: Optional[object] = None
    scale: float = 1.0
    measurement_ticks: Optional[int] = None
    seed: int = 20130421
    ksm: KsmSettings = field(default_factory=KsmSettings)
    tiering: TieringSettings = field(default_factory=TieringSettings)
    hugepages: HugePageSettings = field(default_factory=HugePageSettings)
    backend: str = DEFAULT_BACKEND
    #: A ``repro.faults.plan.FaultPlan`` or None (untyped: see above).
    faults: Optional[object] = None
    #: Worker processes for fan-out inside the run (None = serial);
    #: excluded from the fingerprint.
    jobs: Optional[int] = None

    @property
    def resolved_deployment(self):
        if self.deployment is not None:
            return self.deployment
        from repro.core.preload import CacheDeployment

        return CacheDeployment.NONE

    @classmethod
    def from_cli_args(
        cls,
        args,
        scenario: Optional[str] = None,
        deployment: Optional[object] = None,
    ) -> "ScenarioSpec":
        """Build a spec from an ``add_scenario_options`` namespace.

        ``scenario``/``deployment`` override the namespace (figure
        subcommands hard-code both); missing attributes fall back to
        their defaults so partially-wired parsers keep working.
        """
        from repro.core.columnar.backend import resolve_backend
        from repro.faults.plan import FaultPlan

        get = lambda name, default=None: getattr(args, name, default)
        faults = get("faults")
        if isinstance(faults, str):
            faults = FaultPlan.from_spec(faults)
        if deployment is None:
            deployment = get("deployment")
        if isinstance(deployment, str):
            from repro.core.preload import CacheDeployment

            deployment = CacheDeployment(deployment)
        return cls(
            scenario=scenario or get("scenario"),
            deployment=deployment,
            scale=get("scale", 1.0),
            measurement_ticks=get("ticks"),
            seed=get("seed", 20130421),
            ksm=KsmSettings(
                scan_policy=get("scan_policy", "full"),
                scan_engine=get("scan_engine", DEFAULT_SCAN_ENGINE),
            ),
            tiering=TieringSettings(mode=get("tiering") or "off"),
            hugepages=HugePageSettings(
                policy=get("thp_policy") or "never",
                block_pages=get("hugepages") or 512,
            ),
            backend=resolve_backend(get("backend")),
            faults=faults,
            jobs=get("jobs"),
        )

    def _legacy_representable(self) -> bool:
        """True when the legacy ScenarioRequest vocabulary covers us."""
        return (
            not self.hugepages.enabled
            and self.ksm
            == KsmSettings(
                scan_policy=self.ksm.scan_policy,
                scan_engine=self.ksm.scan_engine,
            )
            and self.tiering == TieringSettings(mode=self.tiering.mode)
        )

    def cache_parts(self) -> tuple:
        """Parts fed to the result-cache fingerprint.

        Legacy-representable specs emit the exact historical
        ``("scenario-run", ScenarioRequest(...))`` parts so existing
        cache entries stay valid; anything new fingerprints the spec
        itself (minus ``jobs``).  Either way the backend enters under
        its resolved name, so a run keeps one key whether its caller
        wrote ``columnar`` or the implementation that name picks.
        """
        if self._legacy_representable():
            from repro.core.experiments.scenarios import ScenarioRequest

            return ScenarioRequest(
                scenario=self.scenario,
                deployment=self.resolved_deployment,
                scale=self.scale,
                measurement_ticks=self.measurement_ticks,
                seed=self.seed,
                scan_policy=self.ksm.scan_policy,
                scan_engine=self.ksm.scan_engine,
                faults=self.faults,
                tiering=self.tiering.mode,
                backend=self.backend,
            ).cache_parts()
        from repro.core.columnar.backend import resolve_backend

        normalized = replace(
            self,
            deployment=self.resolved_deployment,
            backend=resolve_backend(self.backend),
            jobs=None,
        )
        return ("scenario-spec", normalized)

    def to_fingerprint(self) -> str:
        """Stable content fingerprint of this spec (cache key body)."""
        from repro.exec.fingerprint import fingerprint_hex

        return fingerprint_hex(*self.cache_parts())


@dataclass(frozen=True)
class GuestConfig:
    """Table II: one guest VM."""

    memory_bytes: int
    vcpus: int = 2
    guest_os: str = "rhel5.5-debug"
    debug_kernel: bool = True
    ksm: KsmSettings = field(default_factory=KsmSettings)

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError("guest memory must be positive")


@dataclass(frozen=True)
class JvmConfig:
    """Table III: JVM settings for one Java process."""

    heap_bytes: int  # -Xms == -Xmx in all paper runs
    shared_cache_bytes: int
    share_classes: bool = False  # -Xshareclasses
    cache_persistent: bool = True  # persistent sub-option (mmap file)
    cache_name: str = "webspherev70"
    gc_policy: GcPolicy = GcPolicy.OPTTHRUPUT
    nursery_bytes: Optional[int] = None  # gencon only
    tenured_bytes: Optional[int] = None  # gencon only

    def __post_init__(self) -> None:
        if self.heap_bytes <= 0:
            raise ValueError("heap size must be positive")
        if self.shared_cache_bytes < 0:
            raise ValueError("cache size must be non-negative")
        if self.gc_policy is GcPolicy.GENCON:
            if not (self.nursery_bytes and self.tenured_bytes):
                raise ValueError(
                    "gencon requires nursery_bytes and tenured_bytes"
                )

    def with_sharing(self, enabled: bool = True) -> "JvmConfig":
        """Copy of this config with -Xshareclasses toggled."""
        return replace(self, share_classes=enabled)


@dataclass(frozen=True)
class WorkloadConfig:
    """Table III: the client-driver side of one benchmark."""

    benchmark: Benchmark
    client_threads: int = 0
    injection_rate: int = 0  # SPECjEnterprise only
    uses_was: bool = True  # Tuscany runs standalone


# ----------------------------------------------------------------------
# Table I presets
# ----------------------------------------------------------------------

INTEL_HOST = HostConfig(
    name="IBM BladeCenter LS21",
    ram_bytes=6 * GiB,
    cpu_description="Dual-core Opteron 2.4 GHz, 2 sockets",
    hypervisor="kvm",
    host_os="RHEL 5.5 (2.6.18-238.5.1.el5debug)",
)

POWER_HOST = HostConfig(
    name="IBM BladeCenter PS701",
    ram_bytes=128 * GiB,
    cpu_description="POWER7 3.0 GHz, 2 sockets, 4 cores/socket, SMT4",
    hypervisor="powervm",
    host_os="PowerVM 2.1",
)

# ----------------------------------------------------------------------
# Table II presets
# ----------------------------------------------------------------------

INTEL_GUEST_1G = GuestConfig(memory_bytes=1 * GiB)
INTEL_GUEST_SPECJ = GuestConfig(memory_bytes=int(1.25 * GiB))
POWER_GUEST = GuestConfig(
    memory_bytes=int(3.5 * GiB),
    vcpus=1,
    guest_os="aix6.1-tl6",
    debug_kernel=False,  # no crash-dump breakdowns on AIX (§V.B)
)

# ----------------------------------------------------------------------
# Table III presets
# ----------------------------------------------------------------------

DAYTRADER_JVM = JvmConfig(
    heap_bytes=530 * MiB,
    shared_cache_bytes=120 * MiB,
)

SPECJ_JVM = JvmConfig(
    heap_bytes=730 * MiB,
    shared_cache_bytes=120 * MiB,
)

#: The SPECjEnterprise consolidation runs (Fig. 8) use gencon with a
#: 200 MB tenured area and a 530 MB nursery (§V.C).
SPECJ_JVM_GENCON = JvmConfig(
    heap_bytes=730 * MiB,
    shared_cache_bytes=120 * MiB,
    gc_policy=GcPolicy.GENCON,
    nursery_bytes=530 * MiB,
    tenured_bytes=200 * MiB,
)

TPCW_JVM = JvmConfig(
    heap_bytes=512 * MiB,
    shared_cache_bytes=120 * MiB,
)

TUSCANY_JVM = JvmConfig(
    heap_bytes=32 * MiB,
    shared_cache_bytes=25 * MiB,
    cache_name="tuscany",
)

DAYTRADER_POWER_JVM = JvmConfig(
    heap_bytes=1 * GiB,
    shared_cache_bytes=120 * MiB,
)

#: SPECjbb2005: a standalone, heap-dominant benchmark — the workload for
#: which Memory Buddies found "the amount of shareable memory was small"
#: (§VI); included to reproduce that observation.
SPECJBB_JVM = JvmConfig(
    heap_bytes=900 * MiB,
    shared_cache_bytes=30 * MiB,
    cache_name="specjbb",
)

DAYTRADER_WORKLOAD = WorkloadConfig(Benchmark.DAYTRADER, client_threads=12)
SPECJ_WORKLOAD = WorkloadConfig(
    Benchmark.SPECJENTERPRISE, injection_rate=15
)
TPCW_WORKLOAD = WorkloadConfig(Benchmark.TPCW, client_threads=10)
TUSCANY_WORKLOAD = WorkloadConfig(
    Benchmark.TUSCANY_BIGBANK, client_threads=7, uses_was=False
)
DAYTRADER_POWER_WORKLOAD = WorkloadConfig(
    Benchmark.DAYTRADER, client_threads=25
)
SPECJBB_WORKLOAD = WorkloadConfig(
    Benchmark.SPECJBB, client_threads=8, uses_was=False
)
