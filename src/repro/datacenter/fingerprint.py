"""Memory fingerprints: compact sharing-potential estimators.

Memory Buddies (Wood et al., VEE '09 — the paper's reference [44]) sends
each host's page-content hashes to a control plane as Bloom filters and
estimates the sharing potential between VMs from filter intersections.
This module reproduces that machinery over the simulator's page tokens:

* :class:`MemoryFingerprint` — a Bloom filter over a VM's (or host's)
  page-content tokens, with the standard intersection-cardinality
  estimate;
* :func:`fingerprint_vm` — fingerprint one guest VM's current memory.

The estimate deliberately ignores *how many* duplicate pages carry a
token (a Bloom filter cannot count); Memory Buddies has the same bias,
which is fine for ranking candidate hosts.
"""

from __future__ import annotations

import math
from typing import List

from repro.hypervisor.kvm import KvmGuestVm
from repro.sim.rng import stable_hash64


class MemoryFingerprint:
    """A Bloom filter over page-content tokens."""

    def __init__(self, bits: int = 1 << 20, hashes: int = 4) -> None:
        if bits <= 0 or bits & (bits - 1):
            raise ValueError("bits must be a positive power of two")
        if hashes <= 0:
            raise ValueError("need at least one hash function")
        self.bits = bits
        self.hashes = hashes
        self._words = bytearray(bits // 8)
        self._inserted = 0

    # ------------------------------------------------------------------

    def _positions(self, token: int) -> List[int]:
        mask = self.bits - 1
        return [
            stable_hash64("bloom", index, token) & mask
            for index in range(self.hashes)
        ]

    def add(self, token: int) -> None:
        for position in self._positions(token):
            self._words[position >> 3] |= 1 << (position & 7)
        self._inserted += 1

    def might_contain(self, token: int) -> bool:
        return all(
            self._words[position >> 3] & (1 << (position & 7))
            for position in self._positions(token)
        )

    # ------------------------------------------------------------------

    @property
    def inserted(self) -> int:
        return self._inserted

    def bits_set(self) -> int:
        return sum(bin(byte).count("1") for byte in self._words)

    def estimated_cardinality(self) -> float:
        """Standard Bloom cardinality estimate from the fill ratio."""
        set_bits = self.bits_set()
        if set_bits >= self.bits:
            # Saturated filter: the formula diverges; cap at the bit
            # count, which keeps host rankings finite and comparable.
            return float(self.bits)
        estimate = (
            -self.bits / self.hashes
            * math.log(1.0 - set_bits / self.bits)
        )
        # Guard the estimator's edges: floating-point noise near an
        # empty or nearly saturated filter must not leak NaN or a
        # negative cardinality into placement scores.
        if math.isnan(estimate) or estimate < 0.0:
            return 0.0
        return estimate

    def union(self, other: "MemoryFingerprint") -> "MemoryFingerprint":
        self._check_compatible(other)
        result = MemoryFingerprint(self.bits, self.hashes)
        for index in range(len(self._words)):
            result._words[index] = self._words[index] | other._words[index]
        result._inserted = self._inserted + other._inserted
        return result

    def estimate_shared_tokens(self, other: "MemoryFingerprint") -> float:
        """Estimated number of distinct tokens present in both filters.

        |A ∩ B| ≈ |A| + |B| − |A ∪ B|, each term estimated from fill
        ratios.  Clamped into [0, min(|A|, |B|)]: small filters can go
        slightly negative, saturated ones can overshoot, and an
        intersection can never exceed either operand.
        """
        self._check_compatible(other)
        a = self.estimated_cardinality()
        b = other.estimated_cardinality()
        union = self.union(other).estimated_cardinality()
        estimate = a + b - union
        if math.isnan(estimate) or estimate < 0.0:
            return 0.0
        return min(estimate, a, b)

    def _check_compatible(self, other: "MemoryFingerprint") -> None:
        if self.bits != other.bits or self.hashes != other.hashes:
            raise ValueError(
                "fingerprints have different geometry "
                f"({self.bits}/{self.hashes} vs {other.bits}/{other.hashes})"
            )

    def __repr__(self) -> str:
        return (
            f"MemoryFingerprint(bits={self.bits}, inserted={self._inserted})"
        )


def fingerprint_vm(
    vm: KvmGuestVm,
    bits: int = 1 << 20,
    hashes: int = 4,
    skip_zero: bool = True,
) -> MemoryFingerprint:
    """Fingerprint a guest VM's current page contents.

    Zero pages are skipped by default: every VM has them, they merge
    anyway, and counting them would wash out the ranking signal.
    """
    fingerprint = MemoryFingerprint(bits, hashes)
    physmem = vm.host.physmem
    seen = set()
    for vpn in vm.guest_memory_host_vpns():
        token = physmem.read_token(vm.page_table, vpn)
        if token is None or (skip_zero and token == 0):
            continue
        if token in seen:
            continue
        seen.add(token)
        fingerprint.add(token)
    return fingerprint
