"""Sharing-aware VM placement across multiple KVM hosts.

Memory Buddies' workflow (the paper's reference [44]), rebuilt on the
simulator: each host periodically fingerprints its guests' memory; when a
new VM arrives, the control plane compares the VM's reference fingerprint
(taken from a running instance of the same image/workload) against each
candidate host's aggregate fingerprint and places the VM where the
estimated sharing is largest.  First-fit is the baseline policy.

The paper's caveat — Memory Buddies helped native workloads but found
Java sharing "small" — reproduces here too unless the guests use the
class-preloading deployment, which is exactly the synergy the ablation
benchmark demonstrates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.preload import CacheDeployment, CacheProvisioner
from repro.datacenter.fingerprint import MemoryFingerprint, fingerprint_vm
from repro.guestos.kernel import GuestKernel, KernelProfile
from repro.hypervisor.kvm import KvmGuestVm, KvmHost
from repro.jvm.jvm import JavaVM
from repro.sim.rng import RngFactory
from repro.units import DEFAULT_PAGE_SIZE, MiB
from repro.workloads.base import Workload


class PlacementError(Exception):
    """No host can take the requested VM."""


@dataclass(frozen=True)
class VmRequest:
    """A VM the datacenter has been asked to start."""

    name: str
    workload: Workload
    memory_bytes: int
    preload: bool = False


class DatacenterHost:
    """One physical host plus the guests deployed onto it."""

    def __init__(
        self,
        name: str,
        ram_bytes: int,
        page_size: int,
        seed: int,
        kernel_profile: Optional[KernelProfile] = None,
        qemu_overhead_bytes: int = 4 * MiB,
    ) -> None:
        self.name = name
        self.kvm = KvmHost(ram_bytes, page_size=page_size, seed=seed)
        self.kernel_profile = kernel_profile
        self.qemu_overhead_bytes = qemu_overhead_bytes
        self.kernels: Dict[str, GuestKernel] = {}
        self.jvms: Dict[str, JavaVM] = {}
        self._committed_bytes = 0

    # ------------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.kvm.physmem.capacity_bytes

    @property
    def committed_bytes(self) -> int:
        """Guest memory promised to deployed VMs (for admission)."""
        return self._committed_bytes

    def fits(self, request: VmRequest) -> bool:
        return (
            self._committed_bytes + request.memory_bytes
            <= self.capacity_bytes
        )

    def deploy(
        self, request: VmRequest, provisioner: CacheProvisioner
    ) -> KvmGuestVm:
        """Boot the requested VM on this host and start its JVM.

        Atomic: if any boot stage raises (kernel boot, cache
        provisioning, JVM startup), the half-created guest is torn down
        and the host's bookkeeping is exactly what it was before the
        call — no phantom VM holding committed memory.
        """
        vm = self.kvm.create_guest(request.name, request.memory_bytes)
        try:
            kernel = GuestKernel(
                vm, self.kvm.rng.derive("guest", request.name)
            )
            kernel.boot(self.kernel_profile)
            self.kernels[request.name] = kernel
            process = kernel.spawn("java")
            cache = (
                provisioner.cache_for(request.workload, request.name)
                if request.preload
                else None
            )
            jvm_config = request.workload.jvm_config
            if cache is not None:
                jvm_config = jvm_config.with_sharing(True)
            jvm = JavaVM(
                process,
                jvm_config,
                request.workload.profile,
                request.workload.universe(),
                self.kvm.rng.derive("jvm", request.name),
                cache=cache,
            )
            jvm.startup()
            self.jvms[request.name] = jvm
            vm.allocate_overhead(self.qemu_overhead_bytes)
        except Exception:
            self.kernels.pop(request.name, None)
            self.jvms.pop(request.name, None)
            self.kvm.destroy_guest(vm)
            raise
        self._committed_bytes += request.memory_bytes
        return vm

    def aggregate_fingerprint(
        self, bits: int = 1 << 20, hashes: int = 4
    ) -> MemoryFingerprint:
        """Union fingerprint of every guest on this host."""
        result = MemoryFingerprint(bits, hashes)
        for vm in self.kvm.guests:
            result = result.union(fingerprint_vm(vm, bits, hashes))
        return result

    def converge_sharing(self):
        return self.kvm.ksm.run_until_converged()

    def saved_bytes(self) -> int:
        return self.kvm.ksm.saved_bytes

    def __repr__(self) -> str:
        return (
            f"DatacenterHost({self.name!r}, guests={len(self.kvm.guests)})"
        )


class PlacementPolicy(abc.ABC):
    """Chooses the host for an incoming VM request."""

    @abc.abstractmethod
    def choose(
        self,
        hosts: List[DatacenterHost],
        request: VmRequest,
        datacenter: "Datacenter",
    ) -> DatacenterHost:
        """Pick a host; raise :class:`PlacementError` if none fits."""


class FirstFitPolicy(PlacementPolicy):
    """Baseline: the first host with enough uncommitted memory."""

    def choose(self, hosts, request, datacenter):
        for host in hosts:
            if host.fits(request):
                return host
        raise PlacementError(
            f"no host can fit {request.name} "
            f"({request.memory_bytes >> 20} MiB)"
        )


class SharingAwarePolicy(PlacementPolicy):
    """Memory Buddies: place where the estimated sharing is largest."""

    def __init__(self, bits: int = 1 << 20, hashes: int = 4) -> None:
        self.bits = bits
        self.hashes = hashes

    def choose(self, hosts, request, datacenter):
        reference = datacenter.reference_fingerprint(
            request, self.bits, self.hashes
        )
        best: Optional[DatacenterHost] = None
        best_score = -1.0
        for host in hosts:
            if not host.fits(request):
                continue
            aggregate = host.aggregate_fingerprint(self.bits, self.hashes)
            score = aggregate.estimate_shared_tokens(reference)
            # Ties break on the host name so the choice is a function of
            # the candidate set, not of the host list's iteration order.
            if score > best_score or (
                score == best_score
                and best is not None
                and host.name < best.name
            ):
                best = host
                best_score = score
        if best is None:
            raise PlacementError(
                f"no host can fit {request.name} "
                f"({request.memory_bytes >> 20} MiB)"
            )
        return best


class Datacenter:
    """A pool of KVM hosts plus the placement control plane."""

    def __init__(
        self,
        host_count: int,
        host_ram_bytes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        seed: int = 20130421,
        kernel_profile: Optional[KernelProfile] = None,
        deployment: CacheDeployment = CacheDeployment.SHARED_COPY,
        qemu_overhead_bytes: int = 4 * MiB,
    ) -> None:
        if host_count <= 0:
            raise ValueError("need at least one host")
        self.rng = RngFactory(seed)
        self.page_size = page_size
        self.hosts = [
            DatacenterHost(
                f"host{index + 1}",
                host_ram_bytes,
                page_size,
                seed=seed + index,
                kernel_profile=kernel_profile,
                qemu_overhead_bytes=qemu_overhead_bytes,
            )
            for index in range(host_count)
        ]
        #: One provisioner per datacenter: caches come from shared base
        #: images, so two VMs of the same workload get identical files
        #: regardless of which host they land on.
        self.provisioner = CacheProvisioner(
            deployment, page_size, self.rng.derive("preload")
        )
        self._placements: Dict[str, str] = {}
        # Reference fingerprints per (middleware, benchmark, preload):
        # built by deploying one canonical instance in a scratch host.
        self._references: Dict[Tuple, MemoryFingerprint] = {}

    # ------------------------------------------------------------------

    def place(
        self, request: VmRequest, policy: PlacementPolicy
    ) -> DatacenterHost:
        """Admit one VM using the given policy; returns the host."""
        if request.name in self._placements:
            raise ValueError(f"VM {request.name!r} already placed")
        host = policy.choose(self.hosts, request, self)
        host.deploy(request, self.provisioner)
        self._placements[request.name] = host.name
        return host

    def place_on(self, request: VmRequest, host_name: str) -> DatacenterHost:
        """Manually pin a VM to a named host (admission still enforced)."""
        if request.name in self._placements:
            raise ValueError(f"VM {request.name!r} already placed")
        for host in self.hosts:
            if host.name == host_name:
                if not host.fits(request):
                    raise PlacementError(
                        f"{host_name} cannot fit {request.name}"
                    )
                host.deploy(request, self.provisioner)
                self._placements[request.name] = host.name
                return host
        raise KeyError(f"no host named {host_name!r}")

    def placement_of(self, vm_name: str) -> str:
        return self._placements[vm_name]

    def reference_fingerprint(
        self, request: VmRequest, bits: int, hashes: int
    ) -> MemoryFingerprint:
        """Fingerprint of a canonical instance of the request's workload.

        Built once per (workload, preload) by deploying a throwaway
        instance into a scratch host — the "profiling run" Memory Buddies
        assumes exists for each VM image.
        """
        key = (
            request.workload.profile.middleware_id,
            request.workload.profile.benchmark.value,
            request.preload,
            bits,
            hashes,
        )
        cached = self._references.get(key)
        if cached is not None:
            return cached
        scratch = DatacenterHost(
            "scratch",
            max(request.memory_bytes * 2, 64 * MiB),
            self.page_size,
            seed=self.rng.stream("scratch", *key[:3]).randrange(1 << 30),
            kernel_profile=self.hosts[0].kernel_profile,
            qemu_overhead_bytes=4096,
        )
        scratch.deploy(
            VmRequest(
                "reference",
                request.workload,
                request.memory_bytes,
                request.preload,
            ),
            self.provisioner,
        )
        fingerprint = fingerprint_vm(
            scratch.kvm.guests[0], bits, hashes
        )
        self._references[key] = fingerprint
        return fingerprint

    # ------------------------------------------------------------------

    def converge_all(self) -> None:
        for host in self.hosts:
            host.converge_sharing()

    def total_saved_bytes(self) -> int:
        return sum(host.saved_bytes() for host in self.hosts)

    def __repr__(self) -> str:
        return (
            f"Datacenter(hosts={len(self.hosts)}, "
            f"vms={len(self._placements)})"
        )
