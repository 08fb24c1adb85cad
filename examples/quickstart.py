#!/usr/bin/env python3
"""Quickstart: see the paper's effect in one page of code.

Builds a KVM host with four 1 GB guests running WAS + DayTrader, runs the
measurement once without class preloading and once with a shared class
cache copied to both VMs, and prints the per-JVM memory breakdowns —
the before/after of the paper's Figs. 3(a)/5(a).

Run:
    python examples/quickstart.py [scale]

``scale`` (default 0.1) shrinks every memory size proportionally so the
example finishes in seconds; use 1.0 for the paper's actual sizes.
"""

import sys

from repro import (
    CacheDeployment,
    MemoryCategory,
    ScenarioSpec,
    render_java_breakdown,
    run,
)
from repro.units import MiB


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1

    print(f"Simulating 4 KVM guests running WAS + DayTrader (scale={scale})")
    print()

    baseline = run(ScenarioSpec(
        "daytrader4", CacheDeployment.NONE, scale=scale, measurement_ticks=3
    ))
    print(render_java_breakdown(
        baseline.java_breakdown,
        "Baseline (no preloading) — cf. paper Fig. 3(a)",
    ))
    print()

    preloaded = run(ScenarioSpec(
        "daytrader4", CacheDeployment.SHARED_COPY, scale=scale,
        measurement_ticks=3,
    ))
    print(render_java_breakdown(
        preloaded.java_breakdown,
        "Shared class cache copied to all VMs — cf. paper Fig. 5(a)",
    ))
    print()

    # The headline: class metadata of the non-primary JVMs is now almost
    # entirely TPS-shared (the paper reports 89.6 %).
    for row in preloaded.java_breakdown.non_primary_rows():
        fraction = row.shared_fraction(MemoryCategory.CLASS_METADATA)
        print(
            f"{row.vm_name}: {100 * fraction:.1f}% of class metadata "
            "eliminated by TPS (paper: 89.6%)"
        )
    saved = (
        baseline.vm_breakdown.total_usage()
        - preloaded.vm_breakdown.total_usage()
    )
    print(
        f"Total physical memory saved by preloading: "
        f"{saved / MiB:.1f} MB (at scale {scale})"
    )


if __name__ == "__main__":
    main()
