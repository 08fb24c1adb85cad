"""Determinism: the whole pipeline is reproducible bit-for-bit.

The simulator takes no wall-clock input and no global randomness, so two
runs with the same seed must agree on every reported number — and a
different seed must (almost surely) change the layout-jittered details
without changing the qualitative results.
"""

import pytest

from repro.core.categories import MemoryCategory
from repro.config import ScenarioSpec
from repro.core.experiments.scenarios import run
from repro.core.preload import CacheDeployment

SCALE = 0.03


def summarise(result):
    """A stable digest of everything a figure reports."""
    rows = []
    for row in result.vm_breakdown.rows:
        rows.append(
            (row.vm_name, tuple(sorted(row.usage_bytes.items())),
             tuple(sorted(row.shared_bytes.items())))
        )
    java = []
    for row in result.java_breakdown.rows:
        java.append(
            (
                row.vm_name,
                row.pid,
                tuple(
                    (category.value, cell.usage_bytes, cell.shared_bytes)
                    for category, cell in sorted(
                        row.categories.items(), key=lambda kv: kv[0].value
                    )
                ),
            )
        )
    return rows, java


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run(ScenarioSpec(
            "daytrader4", CacheDeployment.SHARED_COPY, scale=SCALE,
            measurement_ticks=2, seed=42,
        ))
        b = run(ScenarioSpec(
            "daytrader4", CacheDeployment.SHARED_COPY, scale=SCALE,
            measurement_ticks=2, seed=42,
        ))
        assert summarise(a) == summarise(b)
        assert a.ksm_stats.pages_scanned == b.ksm_stats.pages_scanned
        assert a.ksm_stats.merges == b.ksm_stats.merges

    def test_different_seed_different_details_same_shape(self):
        a = run(ScenarioSpec(
            "daytrader4", CacheDeployment.SHARED_COPY, scale=SCALE,
            measurement_ticks=2, seed=42,
        ))
        b = run(ScenarioSpec(
            "daytrader4", CacheDeployment.SHARED_COPY, scale=SCALE,
            measurement_ticks=2, seed=43,
        ))
        assert summarise(a) != summarise(b)
        # The qualitative claim survives the seed change.
        for result in (a, b):
            for row in result.java_breakdown.non_primary_rows():
                assert row.shared_fraction(
                    MemoryCategory.CLASS_METADATA
                ) > 0.8
