"""Scanner CPU-cost accounting, shared by the scanner and the ablations.

The calibration in :mod:`repro.ksm.scanner` charges a fixed per-page cost
(3.2 µs) so the paper's §II.C settings reproduce its reported scanner
overheads (≈25 % CPU at 10 000 pages/100 ms, ≈2 % at 1 000).  The
dirty-log-driven policies add a second, much cheaper component: draining
one PML-style log entry costs a fraction of a full page examination
(reading a log record versus checksumming 4 KiB of content).

Keeping the formula here — instead of inline in the scanner's run loop —
lets the consolidation/ablation reporting recompute or decompose scanner
CPU from raw counters without re-running a scan, and guarantees the two
stay consistent.  Under ``ScanPolicy.FULL`` no log entries are drained,
so the charge reduces to exactly the pre-policy ``examined × per-page``
calibration.
"""

from __future__ import annotations

#: Calibrated per-page examination cost (see repro.ksm.scanner).
DEFAULT_COST_US_PER_PAGE = 3.2

#: Cost of consuming one dirty-log entry: a 16-byte log record read plus
#: the bookkeeping to classify it, roughly 1/40 of a page checksum.
DEFAULT_DIRTY_LOG_COST_US = 0.08


def scan_cost_ms(pages_examined: int, dirty_entries_drained: int = 0) -> float:
    """Simulated CPU milliseconds for one scan burst.

    ``pages_examined`` pages were checksummed/tree-searched and
    ``dirty_entries_drained`` dirty-log records were consumed to find
    them.  With ``dirty_entries_drained == 0`` (the FULL policy) this is
    byte-identical to the original ``examined × cost`` calibration.
    """
    if pages_examined < 0 or dirty_entries_drained < 0:
        raise ValueError("counters must be non-negative")
    # Keep the historical evaluation order (per-page cost pre-divided to
    # ms, then multiplied) so FULL-policy charges are bit-for-bit equal
    # to the pre-policy scanner's, not merely numerically close.
    return (
        pages_examined * (DEFAULT_COST_US_PER_PAGE / 1000.0)
        + dirty_entries_drained * (DEFAULT_DIRTY_LOG_COST_US / 1000.0)
    )
