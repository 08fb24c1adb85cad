"""TLB/translation-benefit pricing of huge mappings.

Huge (2 MiB) mappings buy address-translation reach: one TLB entry and
one page-walk level cover 512 base pages.  The segmentation-beats-paging
line of work (PAPERS.md) measures address translation at 5–15 % of
runtime for paging-heavy workloads, and FHPM prices the loss when
fine-grained sharing forces huge mappings apart.  :class:`TlbModel`
reduces both to a single throughput multiplier:

With ``f`` the fraction of baseline (all-4 KiB) runtime spent walking
page tables, a run whose resident pages are huge-backed with coverage
``c`` spends ``f * ((1 - c) + c * r)`` instead, where ``r`` is the
residual walk cost of a huge mapping relative to a base mapping (fewer
walk levels, far fewer TLB misses).  Normalising total runtime so that
``c = 0`` gives exactly 1.0:

    multiplier(c) = (1 + f) / (1 + f * ((1 - c) + c * r))

which rises monotonically to ``(1 + f) / (1 + f * r)`` at full
coverage.  The model is deliberately analytic and deterministic — it
composes multiplicatively with the paging penalty
(:class:`repro.perf.paging.PagingModel`) and the tiering cost model to
price the huge-page trade-off curve, the same way those two compose in
the pressure family.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TlbModel", "DEFAULT_WALK_OVERHEAD", "DEFAULT_HUGE_MISS_RATIO"]

#: Fraction of all-4KiB runtime spent in address translation (page
#: walks + TLB miss handling); middle of the 5–15 % range reported for
#: paging-heavy server workloads.
DEFAULT_WALK_OVERHEAD = 0.10

#: Residual translation cost of a huge mapping relative to a base
#: mapping (one fewer walk level, 512x TLB reach).
DEFAULT_HUGE_MISS_RATIO = 0.25


@dataclass(frozen=True)
class TlbModel:
    """Analytic translation-benefit model for huge-backed memory."""

    walk_overhead_fraction: float = DEFAULT_WALK_OVERHEAD
    huge_miss_ratio: float = DEFAULT_HUGE_MISS_RATIO

    def __post_init__(self) -> None:
        if self.walk_overhead_fraction < 0.0:
            raise ValueError("walk_overhead_fraction must be >= 0")
        if not 0.0 <= self.huge_miss_ratio <= 1.0:
            raise ValueError("huge_miss_ratio must be in [0, 1]")

    def throughput_multiplier(self, coverage: float) -> float:
        """Relative throughput at huge-page ``coverage`` in [0, 1].

        1.0 at zero coverage (the all-4KiB baseline); monotonically
        increasing, maximal at full coverage.
        """
        c = min(max(coverage, 0.0), 1.0)
        f = self.walk_overhead_fraction
        r = self.huge_miss_ratio
        return (1.0 + f) / (1.0 + f * ((1.0 - c) + c * r))
