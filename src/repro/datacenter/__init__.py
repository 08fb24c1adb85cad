"""Datacenter-level placement: sharing-aware VM collocation (§VI).

Implements the Memory Buddies idea the paper discusses as related work:
estimate how much memory two VMs would share if collocated (from compact
fingerprints of their page contents) and place new VMs on the host where
they will share the most.  The hosts (:mod:`repro.datacenter.placement`)
are a handful of simulated hosts booting real guest kernels and JVMs.
"""

from repro.datacenter.fingerprint import MemoryFingerprint, fingerprint_vm
from repro.datacenter.placement import (
    Datacenter,
    FirstFitPolicy,
    PlacementError,
    SharingAwarePolicy,
)

__all__ = [
    "MemoryFingerprint",
    "fingerprint_vm",
    "Datacenter",
    "FirstFitPolicy",
    "SharingAwarePolicy",
    "PlacementError",
]
