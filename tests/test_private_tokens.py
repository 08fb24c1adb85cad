"""Process-private page tokens never coincide across guests or processes.

KSM merges byte-equal pages, so the token of a page whose content is
private to one process (or to the host) must not equal any other page's
token.  The producers here mix page, epoch and stream draws into a
stream key derived from the VM name and the pid; this test builds a
whole daytrader4 testbed and checks the result.

Two arrangements make a key that lost its VM name or its pid collide:
every guest numbers its processes from the same pid base, and the first
guest, given twice the memory, runs a second JVM with the random
streams of its first.  NIO buffers are left out: they are equal across
VMs by design.
"""

import dataclasses
from collections import Counter
from functools import partial

from repro.config import ScenarioSpec
from repro.core.experiments import scenarios, testbed as testbed_module
from repro.guestos.kernel import GuestKernel
from repro.jvm.codearea import CodeArea
from repro.jvm.heap import TAG_HEAP
from repro.jvm.jit import TAG_WORK as TAG_JIT_WORK
from repro.jvm.jvm import JavaVM
from repro.jvm.stacks import TAG_STACK
from repro.jvm.workarea import TAG_PRIVATE as TAG_JVM_WORK

#: Guest VMA tags of the process-private producers.
GUEST_TAGS = (
    TAG_HEAP,
    TAG_STACK,
    TAG_JIT_WORK,
    TAG_JVM_WORK,
    CodeArea.TAG_DATA,
    "sshd:heap",
    "rsyslogd:heap",
)


def _built_testbed(monkeypatch):
    monkeypatch.setattr(
        testbed_module, "GuestKernel", partial(GuestKernel, pid_base=300)
    )
    testbed = scenarios.testbed_for(
        ScenarioSpec("daytrader4", scale=0.02, measurement_ticks=1)
    )
    spec = testbed.guests[0] = dataclasses.replace(
        testbed.guests[0], memory_bytes=2 * testbed.guests[0].memory_bytes
    )
    testbed.build()
    twin = JavaVM(
        testbed.kernels[spec.name].spawn("java"),
        spec.workload.jvm_config,
        spec.workload.profile,
        spec.workload.universe(),
        testbed.host.rng.derive("jvm", spec.name),
    )
    twin.startup()
    testbed.jvms[f"{spec.name}:twin"] = twin
    testbed.run()
    return testbed


def _private_tokens(testbed):
    """(token, producer, where) for every non-zero private page."""
    found = []
    physmem = testbed.host.physmem
    for name, kernel in testbed.kernels.items():
        for process in kernel.processes:
            for vma in process.vmas:
                if vma.tag not in GUEST_TAGS:
                    continue
                for page in range(vma.npages):
                    token = process.read_token(vma, page)
                    if token:
                        found.append(
                            (token, vma.tag, (name, process.pid, page))
                        )
        vm = kernel.vm
        guest_vpns = set(vm.guest_memory_host_vpns())
        for vpn, _fid in vm.page_table.entries():
            if vpn not in guest_vpns:
                token = physmem.read_token(vm.page_table, vpn)
                found.append((token, "qemu", (name, vpn)))
    host_kernel = testbed.host._host_kernel_table
    for vpn, _fid in host_kernel.entries():
        token = physmem.read_token(host_kernel, vpn)
        found.append((token, "host-kernel", (vpn,)))
    return found


def test_private_tokens_are_pairwise_distinct(monkeypatch):
    testbed = _built_testbed(monkeypatch)
    java_pids = [jvm.process.pid for jvm in testbed.jvms.values()]
    assert len(set(java_pids)) == 2  # one pid per JVM of a guest
    found = _private_tokens(testbed)
    producers = Counter(producer for _token, producer, _where in found)
    assert set(producers) == set(GUEST_TAGS) | {"qemu", "host-kernel"}
    assert all(token != 0 for token, _p, _w in found)
    counts = Counter(token for token, _p, _w in found)
    collisions = [
        (producer, where)
        for token, producer, where in found
        if counts[token] > 1
    ]
    assert not collisions, collisions[:8]
