"""Calibrating the fleet's analytic savings model against real scans.

The fleet layer prices co-location with
:func:`repro.datacenter.fleet.converge_host_savings`: a closed-form
fixed point ("every token present *n* times merges down to one frame")
that costs microseconds per host.  The model is what makes fleet-scale
placement tractable, but nothing in the fleet layer ever *checks* it —
the small-scale testbed and the fleet simulation were disjoint worlds.

This module closes the loop.  :func:`simulate_host_savings` rebuilds a
sampled host as a real guest-memory simulation — one
:class:`~repro.mem.address_space.PageTable` per placed VM, every shared
token expanded to its :data:`~repro.datacenter.fleet.TOKEN_SPAN_PAGES`
pages of actual content, plus private and volatile filler — and runs
the KSM scanner over it until the saved-byte count reaches a fixed
point.  The scanner's columnar passes are what make this affordable: a
calibration host scans hundreds of thousands of pages per pass, which a
per-page walk would turn into minutes of Python loops.

The comparison is exact by construction at convergence: the simulated
scanner merges precisely the duplicated shared pages the analytic model
counts (private filler is unique and never merges; volatile filler is
rewritten every pass and is held back by the volatility filter).  Any
residual error therefore measures real scanner behaviour — passes not
yet converged, volatility interference — not modelling noise.

Every entry point here is a pure function of its picklable arguments,
so per-host simulations fan out through the
:class:`~repro.exec.runner.ParallelRunner` exactly like the analytic
convergence units they calibrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.datacenter.fleet import (
    TOKEN_SPAN_PAGES,
    Fleet,
    ImageCatalog,
    converge_host_savings,
)
from repro.exec.runner import ParallelRunner, WorkUnit
from repro.ksm.scanner import KsmConfig, KsmScanner
from repro.mem.address_space import PageTable
from repro.mem.physmem import HostPhysicalMemory
from repro.sim.clock import SimClock
from repro.sim.rng import stable_hash64

#: Unique (never-merging) resident pages mapped per simulated VM.  The
#: analytic model ignores private memory entirely, and unique frames
#: cannot change the saved-byte count, so a small sample is enough to
#: keep the scanner honest about walking non-shareable memory.
PRIVATE_PAGES_PER_VM = 192
#: Pages per VM rewritten with fresh content before every scan pass —
#: permanently volatile memory the scanner must keep filtering out.
VOLATILE_PAGES_PER_VM = 64
#: Upper bound on scan passes before a host is reported unconverged.
MAX_CALIBRATION_PASSES = 8


def simulate_host_savings(
    catalog_spec: Tuple,
    image_counts: Tuple[Tuple[str, int], ...],
    page_size: int,
    seed: int,
    private_pages_per_vm: int = PRIVATE_PAGES_PER_VM,
    volatile_pages_per_vm: int = VOLATILE_PAGES_PER_VM,
    max_passes: int = MAX_CALIBRATION_PASSES,
) -> Dict[str, int]:
    """Re-run one host's placement as a real simulation; report both sides.

    Builds the host's guest memory from the same inputs the analytic
    model sees (catalog spec + image multiset), scans it with the KSM
    scanner under the FULL policy until ``saved_bytes`` stops moving,
    and returns the analytic and simulated saved-byte counts side by
    side.  Module-level and pure, so it ships as a ParallelRunner
    :class:`~repro.exec.runner.WorkUnit`.
    """
    catalog = ImageCatalog.from_spec(catalog_spec)
    analytic = converge_host_savings(catalog_spec, image_counts, page_size)

    pages_per_vm = {
        name: (
            len(catalog.by_name[name].shared_tokens) * TOKEN_SPAN_PAGES
            + private_pages_per_vm
            + volatile_pages_per_vm
        )
        for name, _ in image_counts
    }
    total_pages = sum(
        pages_per_vm[name] * count for name, count in image_counts
    )
    physmem = HostPhysicalMemory(
        capacity_bytes=(total_pages + 8) * page_size, page_size=page_size
    )
    clock = SimClock()
    scanner = KsmScanner(
        physmem,
        clock,
        KsmConfig(pages_to_scan=max(1, total_pages), scan_policy="full"),
    )

    # (table, base vpn, vm identity) for the per-pass volatile rewrites.
    volatile_regions: List[Tuple[PageTable, int, str, int]] = []
    for image_name, count in image_counts:
        image = catalog.by_name[image_name]
        for instance in range(count):
            table = PageTable(f"cal-{image_name}-{instance}")
            vpn = 0
            for token in image.shared_tokens:
                for span in range(TOKEN_SPAN_PAGES):
                    physmem.map_token(
                        table, vpn, stable_hash64("cal-shared", token, span)
                    )
                    vpn += 1
            for page in range(private_pages_per_vm):
                physmem.map_token(
                    table,
                    vpn,
                    stable_hash64(
                        "cal-private", seed, image_name, instance, page
                    ),
                )
                vpn += 1
            volatile_regions.append((table, vpn, image_name, instance))
            for page in range(volatile_pages_per_vm):
                physmem.map_token(
                    table,
                    vpn,
                    stable_hash64(
                        "cal-volatile", seed, image_name, instance, page, -1
                    ),
                )
                vpn += 1
            scanner.register(table)

    passes = 0
    previous = -1
    simulated = 0
    while passes < max_passes:
        for table, base, image_name, instance in volatile_regions:
            for page in range(volatile_pages_per_vm):
                physmem.write_token(
                    table,
                    base + page,
                    stable_hash64(
                        "cal-volatile", seed, image_name, instance,
                        page, passes,
                    ),
                )
        scanner.scan_pages(total_pages)
        passes += 1
        simulated = scanner.saved_bytes
        # The volatility filter delays first merges by one pass, so a
        # flat reading before pass 3 may just be the warm-up plateau.
        if simulated == previous and passes >= 3:
            break
        previous = simulated
    return {
        "analytic_bytes": analytic,
        "simulated_bytes": simulated,
        "passes": passes,
        "pages_mapped": total_pages,
        "merges": scanner.stats.merges,
        "cpu_ms": int(round(scanner.stats.cpu_ms)),
    }


# ----------------------------------------------------------------------
# Fleet-level sampling and reporting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HostCalibration:
    """Analytic-vs-simulated savings for one sampled host."""

    host: str
    vms: int
    analytic_bytes: int
    simulated_bytes: int
    passes: int
    pages_mapped: int
    scan_cpu_ms: int

    @property
    def error_bytes(self) -> int:
        return self.analytic_bytes - self.simulated_bytes

    @property
    def relative_error(self) -> float:
        if self.analytic_bytes == 0:
            return 0.0 if self.simulated_bytes == 0 else float("inf")
        return self.error_bytes / self.analytic_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "vms": self.vms,
            "analytic_bytes": self.analytic_bytes,
            "simulated_bytes": self.simulated_bytes,
            "error_bytes": self.error_bytes,
            "relative_error": round(self.relative_error, 6),
            "passes": self.passes,
            "pages_mapped": self.pages_mapped,
            "scan_cpu_ms": self.scan_cpu_ms,
        }


@dataclass
class CalibrationReport:
    """Per-host calibration rows plus the aggregate model error."""

    hosts: List[HostCalibration]
    sampled: int
    occupied: int

    @property
    def analytic_bytes(self) -> int:
        return sum(row.analytic_bytes for row in self.hosts)

    @property
    def simulated_bytes(self) -> int:
        return sum(row.simulated_bytes for row in self.hosts)

    @property
    def max_abs_error_bytes(self) -> int:
        return max(
            (abs(row.error_bytes) for row in self.hosts), default=0
        )

    @property
    def aggregate_relative_error(self) -> float:
        total = self.analytic_bytes
        if total == 0:
            return 0.0
        return (total - self.simulated_bytes) / total

    def as_dict(self) -> Dict[str, object]:
        return {
            "sampled_hosts": self.sampled,
            "occupied_hosts": self.occupied,
            "analytic_bytes": self.analytic_bytes,
            "simulated_bytes": self.simulated_bytes,
            "max_abs_error_bytes": self.max_abs_error_bytes,
            "aggregate_relative_error": round(
                self.aggregate_relative_error, 6
            ),
            "hosts": [row.as_dict() for row in self.hosts],
        }

    def render(self) -> str:
        lines = [
            f"calibration: {self.sampled} of {self.occupied} occupied "
            "host(s) re-run as guest simulations (batch scan engine)",
            f"  {'host':<8} {'vms':>4} {'analytic MB':>12} "
            f"{'simulated MB':>13} {'err':>8} {'passes':>7}",
        ]
        for row in self.hosts:
            lines.append(
                f"  {row.host:<8} {row.vms:>4} "
                f"{row.analytic_bytes / (1 << 20):>12.1f} "
                f"{row.simulated_bytes / (1 << 20):>13.1f} "
                f"{row.relative_error:>7.2%} {row.passes:>7}"
            )
        lines.append(
            f"  aggregate: analytic "
            f"{self.analytic_bytes / (1 << 20):.1f} MB vs simulated "
            f"{self.simulated_bytes / (1 << 20):.1f} MB "
            f"({self.aggregate_relative_error:.2%} error, "
            f"max per-host {self.max_abs_error_bytes >> 10} KiB)"
        )
        return "\n".join(lines)


def sample_hosts(fleet: Fleet, sample: int, seed: int) -> List:
    """Pick up to ``sample`` occupied hosts, deterministically by seed."""
    occupied = [host for host in fleet.hosts if host.image_counts]
    if sample >= len(occupied):
        return occupied
    # A private stream, not fleet.rng: sampling for a report must not
    # perturb the fleet's own deterministic decision sequence.
    picker = random.Random(stable_hash64(seed, "fleet-calibration-sample"))
    return sorted(
        picker.sample(occupied, sample), key=lambda host: host.name
    )


def calibrate_fleet(
    fleet: Fleet,
    sample: int,
    seed: int,
    jobs: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
    private_pages_per_vm: int = PRIVATE_PAGES_PER_VM,
    volatile_pages_per_vm: int = VOLATILE_PAGES_PER_VM,
) -> CalibrationReport:
    """Calibrate the analytic model on a sample of a fleet's hosts.

    Fans one :func:`simulate_host_savings` unit per sampled host out
    through the :class:`~repro.exec.runner.ParallelRunner` (the same
    machinery the analytic convergence uses) and aggregates the error.
    Results are a pure function of the fleet placement, the seed and
    the sample size — bit-identical at any ``jobs`` value.
    """
    chosen = sample_hosts(fleet, sample, seed)
    occupied = sum(1 for host in fleet.hosts if host.image_counts)
    runner = runner if runner is not None else ParallelRunner(jobs=jobs)
    units = [
        WorkUnit(
            fn=simulate_host_savings,
            args=(
                fleet.catalog.spec,
                tuple(sorted(host.image_counts.items())),
                fleet.page_size,
                seed,
                private_pages_per_vm,
                volatile_pages_per_vm,
            ),
            label=f"calibrate:{host.name}",
        )
        for host in chosen
    ]
    results = runner.map(units)
    rows = [
        HostCalibration(
            host=host.name,
            vms=sum(host.image_counts.values()),
            analytic_bytes=result["analytic_bytes"],
            simulated_bytes=result["simulated_bytes"],
            passes=result["passes"],
            pages_mapped=result["pages_mapped"],
            scan_cpu_ms=result["cpu_ms"],
        )
        for host, result in zip(chosen, results)
    ]
    return CalibrationReport(
        hosts=rows, sampled=len(rows), occupied=occupied
    )
