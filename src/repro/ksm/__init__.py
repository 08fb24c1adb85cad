"""Kernel Samepage Merging (KSM): the Linux TPS scanner used by KVM."""

from typing import Optional

from repro.ksm.index import TokenIndex
from repro.ksm.scanner import (
    SCAN_ENGINES,
    KsmConfig,
    KsmScanner,
    ScanPolicy,
)
from repro.ksm.stats import KsmStats


def create_scanner(physmem, clock, config: Optional[KsmConfig] = None):
    """Build the scanner selected by ``config.scan_engine``.

    ``"batch"`` (the default) is the columnar engine from
    :mod:`repro.ksm.batch`, examining worklists in bulk; ``"object"`` is
    the per-page reference engine, bit-identical in results.
    """
    config = config or KsmConfig()
    if config.scan_engine == "batch":
        from repro.ksm.batch import BatchKsmScanner

        return BatchKsmScanner(physmem, clock, config)
    return KsmScanner(physmem, clock, config)


__all__ = [
    "KsmConfig",
    "KsmScanner",
    "KsmStats",
    "SCAN_ENGINES",
    "ScanPolicy",
    "TokenIndex",
    "create_scanner",
]
