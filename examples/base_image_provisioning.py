#!/usr/bin/env python3
"""Base-image provisioning: the paper's §IV.C deployment story.

Plays the role of the datacenter administrator:

1. prepare a base disk image — run the middleware once with
   ``-Xshareclasses`` and a persistent cache file, and keep the populated
   file in the image;
2. provision guest VMs from copies of that image (every VM gets a
   byte-identical cache file);
3. compare against the naive deployment where each VM populates its own
   cache — class sharing is on either way, but only the copied file makes
   the pages identical across VMs.

Run:
    python examples/base_image_provisioning.py [scale]
"""

import sys

from repro import (
    CacheDeployment,
    MemoryCategory,
    ScenarioSpec,
    build_cache_for_image,
    run,
)
from repro.config import Benchmark
from repro.sim.rng import RngFactory
from repro.units import MiB
from repro.workloads import build_workload
from repro.core.experiments.testbed import scale_workload


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05

    # --- Step 1: the administrator prepares the base image. ------------
    workload = scale_workload(build_workload(Benchmark.DAYTRADER), scale)
    base = build_cache_for_image(workload, 4096, RngFactory(2013))
    layout = base.layout
    print(
        f"base image prepared: cache {layout.name!r} holds "
        f"{layout.stored_classes} ROM classes, "
        f"{layout.used_bytes / MiB:.1f} of {layout.size_bytes / MiB:.1f} MB "
        "used"
    )
    copy = base.copy_for_vm("some-guest")
    print(
        f"cache file for a provisioned guest: {copy.backing.file_id}\n"
    )

    # --- Steps 2+3: measure both deployments. --------------------------
    for deployment, label in (
        (CacheDeployment.PER_VM,
         "naive: every VM populates its own cache"),
        (CacheDeployment.SHARED_COPY,
         "paper: one cache file copied into every VM"),
    ):
        result = run(ScenarioSpec(
            "daytrader4", deployment, scale=scale, measurement_ticks=2
        ))
        rows = result.java_breakdown.non_primary_rows()
        avg = sum(
            row.shared_fraction(MemoryCategory.CLASS_METADATA)
            for row in rows
        ) / len(rows)
        total = result.vm_breakdown.total_usage()
        print(
            f"{label}:\n"
            f"  class metadata TPS-shared (non-primary avg): "
            f"{100 * avg:.1f}%\n"
            f"  total physical use of 4 guests: {total / MiB:.1f} MB"
        )
    print(
        "\nConclusion: enabling -Xshareclasses is not enough — copying the "
        "populated cache file into every guest VM is what lets TPS merge "
        "the class pages (paper §IV)."
    )


if __name__ == "__main__":
    main()
