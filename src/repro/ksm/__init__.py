"""Kernel Samepage Merging (KSM): the Linux TPS scanner used by KVM."""

from repro.ksm.index import TokenIndex
from repro.ksm.scanner import KsmConfig, KsmScanner, ScanPolicy
from repro.ksm.stats import KsmStats

__all__ = [
    "KsmConfig",
    "KsmScanner",
    "KsmStats",
    "ScanPolicy",
    "TokenIndex",
]
