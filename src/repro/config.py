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
    sleep interval is 100 ms throughout.  The testbed runs the boosted
    warm-up until sharing converges instead of for a fixed time.
    """

    pages_to_scan: int = 1000
    sleep_millisecs: int = 100
    warmup_pages_to_scan: int = 10000
    #: Scan policy ("full", "incremental" or "hybrid"); "full" is the
    #: paper's configuration, the others use PML-style dirty tracking.
    scan_policy: str = "full"
    #: False runs the testbed without KSM (no warm-up, no scans), as the
    #: pressure family's non-TPS arms do.
    enabled: bool = True


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

    def __post_init__(self) -> None:
        if self.policy not in THP_POLICIES:
            raise ValueError(
                f"unknown THP policy {self.policy!r}; "
                f"expected one of {THP_POLICIES}"
            )
        if self.block_pages < 2 or self.block_pages & (self.block_pages - 1):
            raise ValueError("block_pages must be a power of two >= 2")

    @property
    def enabled(self) -> bool:
        return self.policy != "never"


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified testbed run: the only description of an
    experiment cell.

    Every family of the experiment API is a grid of ``(measure, spec)``
    cells run by ``repro.core.experiments.scenarios.run_grid``: the
    breakdown figures, the consolidation footprints, the pressure arms
    and the huge-page curve differ only in the spec and in what the
    measure function reads off the host afterwards.  The spec composes
    the scenario's guests, KSM settings, tiering, huge pages, host
    sizing and fault plan into a single frozen value;
    :meth:`cache_parts` feeds all of it to the result-cache fingerprint.

    Construction paths:

    * :meth:`from_cli_args` — from an argparse namespace of a
      one-testbed ``repro`` command;
    * direct keyword construction in tests and experiment drivers.
    """

    scenario: str
    #: A ``repro.core.preload.CacheDeployment`` member, or None for
    #: CacheDeployment.NONE (kept untyped here to avoid an import
    #: cycle; normalize via :attr:`resolved_deployment`).
    deployment: Optional[object] = None
    scale: float = 1.0
    #: Ticks of the measurement window after the KSM warm-up.
    measurement_ticks: int = 6
    seed: int = 20130421
    ksm: KsmSettings = field(default_factory=KsmSettings)
    tiering: TieringSettings = field(default_factory=TieringSettings)
    hugepages: HugePageSettings = field(default_factory=HugePageSettings)
    #: A ``repro.faults.plan.FaultPlan`` or None (untyped: see above).
    faults: Optional[object] = None
    #: Guest count; None keeps the scenario's own arrangement, N runs
    #: guest i as the scenario's guest i mod its guest count.
    guests: Optional[int] = None
    #: Host RAM as a fraction of the scenario's normal sizing; < 1
    #: creates memory pressure.
    host_ram_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.guests is not None and self.guests < 1:
            raise ValueError("guests must be at least 1")
        if not 0.0 < self.host_ram_fraction <= 1.0:
            raise ValueError("host_ram_fraction must be in (0, 1]")

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
        """Build a spec from the namespace of a one-testbed command.

        ``scenario``/``deployment`` override the namespace (figure
        subcommands hard-code both); an attribute the namespace lacks
        falls back to the field's default.
        """
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
            measurement_ticks=get("ticks", 6),
            seed=get("seed", 20130421),
            ksm=KsmSettings(scan_policy=get("scan_policy", "full")),
            tiering=TieringSettings(mode=get("tiering") or "off"),
            hugepages=HugePageSettings(
                policy=get("thp_policy") or "never",
                block_pages=get("hugepages") or 512,
            ),
            faults=faults,
        )

    def cache_parts(self) -> tuple:
        """Parts fed to the result-cache fingerprint: every field, with
        what the testbed ignores normalized so specs that differ only
        there share an entry: None and NONE deployments, huge-page
        settings under policy "never" and tiering settings under mode
        "off"."""
        return (
            "scenario-spec",
            replace(
                self,
                deployment=self.resolved_deployment,
                hugepages=(
                    self.hugepages
                    if self.hugepages.enabled
                    else HugePageSettings()
                ),
                tiering=(
                    self.tiering
                    if self.tiering.mode != "off"
                    else TieringSettings()
                ),
            ),
        )


@dataclass(frozen=True)
class GuestConfig:
    """Table II: one guest VM."""

    memory_bytes: int
    vcpus: int = 2
    guest_os: str = "rhel5.5-debug"
    debug_kernel: bool = True

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError("guest memory must be positive")


@dataclass(frozen=True)
class JvmConfig:
    """Table III: JVM settings for one Java process."""

    heap_bytes: int  # -Xms == -Xmx in all paper runs
    shared_cache_bytes: int
    share_classes: bool = False  # -Xshareclasses
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

#: The KVM host's own kernel memory (never a KSM candidate): what a
#: testbed host touches before its guests, and what the paging model
#: charges ahead of their demand.
HOST_KERNEL_BYTES = 300 * MiB

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
