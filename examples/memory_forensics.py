#!/usr/bin/env python3
"""Memory forensics: drive the paper's dump-based analysis by hand.

Shows the §II.B methodology step by step on a live simulated host:

1. boot a two-guest testbed and run the workload;
2. collect the three translation layers into a system dump — including
   reading the KVM memslots out of the ``kvm-vm`` device's private data,
   the way the paper's host kernel module does;
3. walk one Java heap page through guest page table → memslot → host page
   table;
4. run both accounting policies over the same dump and compare them.

Run:
    python examples/memory_forensics.py [scale]
"""

import sys

from repro import (
    CacheDeployment,
    ScenarioSpec,
    distribution_oriented_accounting,
    owner_oriented_accounting,
)
from repro.core.dump import collect_system_dump, read_kvm_memslots
from repro.core.experiments.scenarios import testbed_for
from repro.core.translate import resolve_process_page
from repro.units import MiB


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05

    testbed = testbed_for(ScenarioSpec(
        "daytrader4",
        CacheDeployment.SHARED_COPY,
        scale=scale,
        measurement_ticks=2,
        guests=2,
    ))
    print("running the testbed ...")
    testbed.run()

    # Step 1: the host kernel module reads the memslots from the kvm-vm
    # device's private_data.
    vm1 = testbed.host.guest("vm1")
    slots = read_kvm_memslots(vm1)
    print(f"\nkvm-vm device of vm1: {len(slots)} memslot(s); "
          f"slot 0 maps gfn 0..{slots[0].npages - 1:#x} to host vpn "
          f"{slots[0].host_base_vpn:#x}+")

    # Step 2: collect crash dumps + virsh dumps into one system dump.
    dump = collect_system_dump(testbed.host, testbed.kernels)
    print(f"system dump: {len(dump.guests)} guest dumps, "
          f"{len(dump.host.page_tables)} host page tables, "
          f"{len(dump.frames)} frames")

    # Step 3: walk one Java heap page through all three layers.
    guest = dump.guest("vm1")
    java = next(p for p in guest.processes if p.is_java)
    heap_vma = next(v for v in java.vmas if v.tag == "java:heap")
    resolution = resolve_process_page(dump, guest, java, heap_vma.start_vpn)
    print(
        f"\njava pid {java.pid}, heap vpn {resolution.vpn:#x}:\n"
        f"  guest page table -> gfn {resolution.gfn:#x}\n"
        f"  memslots        -> host vpn {resolution.host_vpn:#x}\n"
        f"  host page table -> frame {resolution.frame_id}"
    )

    # Step 4: both accounting policies over the same dump.
    owner = owner_oriented_accounting(dump)
    pss = distribution_oriented_accounting(dump)
    print("\nper-Java-process accounting (MB):")
    print(f"{'process':<14}{'owner usage':>14}{'owner shared':>14}{'PSS':>10}")
    for user in owner.java_users():
        print(
            f"{user.vm_name}:pid{user.pid:<6}"
            f"{owner.usage_of(user) / MiB:>14.1f}"
            f"{owner.shared_of(user) / MiB:>14.1f}"
            f"{pss.pss_bytes[user] / MiB:>10.1f}"
        )
    print(
        f"\nconservation check: owner total "
        f"{owner.total_usage() / MiB:.1f} MB == PSS total "
        f"{pss.total_pss() / MiB:.1f} MB"
    )


if __name__ == "__main__":
    main()
