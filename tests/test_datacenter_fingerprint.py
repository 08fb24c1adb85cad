"""Unit tests for memory fingerprints (Memory Buddies machinery)."""

import pytest

from repro.datacenter.fingerprint import MemoryFingerprint, fingerprint_vm
from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost
from repro.units import MiB

PAGE = 4096


class TestBloomBasics:
    def test_membership(self):
        fingerprint = MemoryFingerprint(bits=1 << 10)
        fingerprint.add(42)
        assert fingerprint.might_contain(42)

    def test_probably_absent(self):
        fingerprint = MemoryFingerprint(bits=1 << 12)
        for token in range(1, 20):
            fingerprint.add(token)
        misses = sum(
            1 for token in range(10_000, 10_100)
            if not fingerprint.might_contain(token)
        )
        assert misses > 90  # false positives are rare at this load

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            MemoryFingerprint(bits=1000)  # not a power of two
        with pytest.raises(ValueError):
            MemoryFingerprint(hashes=0)

    def test_incompatible_union_rejected(self):
        a = MemoryFingerprint(bits=1 << 10)
        b = MemoryFingerprint(bits=1 << 12)
        with pytest.raises(ValueError):
            a.union(b)


class TestCardinality:
    def test_estimate_tracks_insertions(self):
        fingerprint = MemoryFingerprint(bits=1 << 14)
        for token in range(1, 501):
            fingerprint.add(token)
        estimate = fingerprint.estimated_cardinality()
        assert 400 < estimate < 600

    def test_intersection_estimate(self):
        a = MemoryFingerprint(bits=1 << 14)
        b = MemoryFingerprint(bits=1 << 14)
        for token in range(1, 401):  # 1..400
            a.add(token)
        for token in range(201, 601):  # 201..600; overlap = 200
            b.add(token)
        shared = a.estimate_shared_tokens(b)
        assert 120 < shared < 280

    def test_disjoint_sets_estimate_near_zero(self):
        a = MemoryFingerprint(bits=1 << 14)
        b = MemoryFingerprint(bits=1 << 14)
        for token in range(1, 201):
            a.add(token)
        for token in range(10_001, 10_201):
            b.add(token)
        assert a.estimate_shared_tokens(b) < 60

    def test_union_cardinality(self):
        a = MemoryFingerprint(bits=1 << 14)
        b = MemoryFingerprint(bits=1 << 14)
        for token in range(1, 201):
            a.add(token)
        for token in range(201, 401):
            b.add(token)
        union = a.union(b)
        assert 300 < union.estimated_cardinality() < 500


class TestVmFingerprint:
    def test_identical_vms_high_overlap(self):
        host = KvmHost(64 * MiB, seed=31)
        fingerprints = []
        for name in ("vm1", "vm2"):
            vm = host.create_guest(name, 2 * MiB)
            for gfn in range(64):
                vm.write_gfn(gfn, 5_000 + gfn)  # same content both VMs
            fingerprints.append(fingerprint_vm(vm, bits=1 << 12))
        shared = fingerprints[0].estimate_shared_tokens(fingerprints[1])
        assert shared > 40

    def test_different_vms_low_overlap(self):
        host = KvmHost(64 * MiB, seed=31)
        fingerprints = []
        for index, name in enumerate(("vm1", "vm2")):
            vm = host.create_guest(name, 2 * MiB)
            for gfn in range(64):
                vm.write_gfn(gfn, (index + 1) * 100_000 + gfn)
            fingerprints.append(fingerprint_vm(vm, bits=1 << 12))
        shared = fingerprints[0].estimate_shared_tokens(fingerprints[1])
        assert shared < 20

    def test_zero_pages_skipped(self):
        host = KvmHost(64 * MiB, seed=31)
        vm = host.create_guest("vm1", 2 * MiB)
        for gfn in range(32):
            vm.write_gfn(gfn, 0)
        fingerprint = fingerprint_vm(vm)
        assert fingerprint.inserted == 0

    def test_duplicate_tokens_inserted_once(self):
        host = KvmHost(64 * MiB, seed=31)
        vm = host.create_guest("vm1", 2 * MiB)
        for gfn in range(16):
            vm.write_gfn(gfn, 777)
        fingerprint = fingerprint_vm(vm)
        assert fingerprint.inserted == 1
