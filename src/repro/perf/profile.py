"""Per-phase wall/CPU profiling for scenario runs.

A :class:`PhaseProfiler` splits a testbed run into its coarse phases —
guest build, KSM warm-up, workload ticks, tiering, scan bursts, dump
collection, accounting — and accumulates wall-clock and process-CPU
time per phase.  It answers the practical tuning question: *where
does a scenario actually spend its time?*

The profiler is deliberately dumb: named stopwatch accumulators around
``with profiler.phase("scan"):`` blocks.  No sampling, no threads, no
global state, and a disabled run (``profiler=None``) costs nothing.
Profiled runs bypass the result cache — a cache hit would profile
nothing but deserialization.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

#: Render/report order for the standard testbed phases (phases not in
#: this list are appended alphabetically).
PHASE_ORDER = (
    "build",
    "warmup",
    "workload",
    "tiering",
    "scan",
    "dump",
    "accounting",
)


@dataclass
class PhaseSample:
    """Accumulated cost of one named phase."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    count: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "count": self.count,
        }


@dataclass
class PhaseProfiler:
    """Named wall/CPU stopwatches with JSON and table output."""

    phases: Dict[str, PhaseSample] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one block; nested/repeated entries accumulate."""
        sample = self.phases.get(name)
        if sample is None:
            sample = self.phases[name] = PhaseSample()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            sample.wall_s += time.perf_counter() - wall0
            sample.cpu_s += time.process_time() - cpu0
            sample.count += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _ordered(self):
        known = [n for n in PHASE_ORDER if n in self.phases]
        extra = sorted(n for n in self.phases if n not in PHASE_ORDER)
        return known + extra

    @property
    def total_wall_s(self) -> float:
        return sum(s.wall_s for s in self.phases.values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready report: per-phase samples plus totals."""
        return {
            "phases": {n: self.phases[n].as_dict() for n in self._ordered()},
            "total_wall_s": self.total_wall_s,
            "total_cpu_s": sum(s.cpu_s for s in self.phases.values()),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")

    def render(self, title: Optional[str] = None) -> str:
        """A fixed-width per-phase table (wall, CPU, share, calls)."""
        total = self.total_wall_s or 1.0
        lines = []
        if title:
            lines.append(title)
            lines.append("=" * len(title))
        lines.append(
            f"{'phase':<12} {'wall ms':>10} {'cpu ms':>10} "
            f"{'share':>7} {'calls':>7}"
        )
        for name in self._ordered():
            sample = self.phases[name]
            lines.append(
                f"{name:<12} {sample.wall_s * 1e3:>10.1f} "
                f"{sample.cpu_s * 1e3:>10.1f} "
                f"{sample.wall_s / total:>6.1%} {sample.count:>7}"
            )
        lines.append(
            f"{'TOTAL':<12} {self.total_wall_s * 1e3:>10.1f} "
            f"{sum(s.cpu_s for s in self.phases.values()) * 1e3:>10.1f}"
        )
        return "\n".join(lines)
