"""Diagnostics applied to a realistic scenario dump (integration)."""

import pytest

from repro.core.categories import MemoryCategory
from repro.core.diagnostics import (
    category_sharing_summary,
    cross_vm_sharing_matrix,
    sharing_histogram,
    zero_page_census,
)
from repro.core.dump import collect_system_dump
from repro.core.experiments import scenarios
from repro.core.preload import CacheDeployment
from repro.config import ScenarioSpec

from tests.oracle import (
    build_frame_usage,
    dict_category_sharing_summary,
    dict_cross_vm_sharing_matrix,
    dict_sharing_histogram,
    dict_zero_page_census,
)

SCALE = 0.03


@pytest.fixture(scope="module")
def dump_and_host():
    testbed = scenarios.testbed_for(ScenarioSpec(
        "daytrader4",
        CacheDeployment.SHARED_COPY,
        scale=SCALE,
        measurement_ticks=2,
        guests=3,
    ))
    testbed.run()
    dump = collect_system_dump(testbed.host, testbed.kernels)
    return dump, testbed.host


class TestDiagnosticsIntegration:
    def test_histogram_shows_three_way_sharing(self, dump_and_host):
        dump, _host = dump_and_host
        histogram = sharing_histogram(dump)
        # With three preloaded guests, many frames have 3+ mappings (the
        # class-cache pages) and most are private.
        assert histogram.get(1, 0) > sum(
            count for size, count in histogram.items() if size >= 3
        )
        assert sum(
            count for size, count in histogram.items() if size >= 3
        ) > 0

    def test_matrix_symmetric_pairs_similar(self, dump_and_host):
        """Identical workloads: every VM pair shares a similar amount."""
        dump, _host = dump_and_host
        matrix = cross_vm_sharing_matrix(dump)
        pair_values = [
            matrix.get(pair, 0)
            for pair in (("vm1", "vm2"), ("vm1", "vm3"), ("vm2", "vm3"))
        ]
        assert all(value > 0 for value in pair_values)
        assert max(pair_values) < 1.5 * min(pair_values)

    def test_zero_census_consistent(self, dump_and_host):
        dump, _host = dump_and_host
        usage = build_frame_usage(dump)
        census = zero_page_census(dump)
        assert census.total_frames == len(usage)
        assert census.zero_frames >= 1
        assert census.zero_mappings >= census.zero_frames

    def test_category_summary_matches_breakdown_scale(self, dump_and_host):
        dump, _host = dump_and_host
        summary = category_sharing_summary(dump)
        class_total, class_shared = summary[MemoryCategory.CLASS_METADATA]
        # Preloaded: the vast majority of all class bytes sit on shared
        # frames (including the owner's mappings of them).
        assert class_shared / class_total > 0.7
        heap_total, heap_shared = summary[MemoryCategory.JAVA_HEAP]
        assert heap_shared / heap_total < 0.1

    @pytest.mark.parametrize("report, oracle", [
        (sharing_histogram, dict_sharing_histogram),
        (cross_vm_sharing_matrix, dict_cross_vm_sharing_matrix),
        (zero_page_census, dict_zero_page_census),
        (category_sharing_summary, dict_category_sharing_summary),
    ], ids=["histogram", "matrix", "zero_census", "category_summary"])
    def test_matches_per_frame_form(self, dump_and_host, report, oracle):
        dump, _host = dump_and_host
        assert report(dump) == oracle(dump)
