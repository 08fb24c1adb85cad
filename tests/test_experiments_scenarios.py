"""Integration tests for the breakdown scenarios (scaled-down figures).

These run the full pipeline — testbed, workloads, KSM, dump, accounting —
at 3 % scale and assert the paper's qualitative claims hold.
"""

import pytest

from repro.core.categories import MemoryCategory
from repro.config import ScenarioSpec
from repro.core.experiments.scenarios import SCENARIOS, run
from repro.core.preload import CacheDeployment

SCALE = 0.03
TICKS = 2


@pytest.fixture(scope="module")
def daytrader_baseline():
    return run(ScenarioSpec(
        "daytrader4", CacheDeployment.NONE, scale=SCALE,
        measurement_ticks=TICKS,
    ))


@pytest.fixture(scope="module")
def daytrader_preloaded():
    return run(ScenarioSpec(
        "daytrader4", CacheDeployment.SHARED_COPY, scale=SCALE,
        measurement_ticks=TICKS,
    ))


class TestBaseline:
    def test_four_vms_four_jvms(self, daytrader_baseline):
        assert len(daytrader_baseline.vm_breakdown.rows) == 4
        assert len(daytrader_baseline.java_breakdown.rows) == 4

    def test_java_is_largest_consumer(self, daytrader_baseline):
        """Fig. 2: the Java process dominates each guest's memory."""
        for row in daytrader_baseline.vm_breakdown.rows:
            java = row.usage_bytes["java"] + row.shared_bytes["java"]
            assert java > row.usage_bytes["guest_kernel"]
            assert java > row.usage_bytes["other_processes"]
            assert java > row.usage_bytes["guest_vm"]

    def test_kernel_shares_about_half(self, daytrader_baseline):
        """Fig. 2: ≈50 % of the non-owner guests' kernel area is shared
        with the owner VM."""
        rows = daytrader_baseline.vm_breakdown.rows
        kernel_shared = sorted(
            row.shared_bytes["guest_kernel"]
            / max(
                1,
                row.usage_bytes["guest_kernel"]
                + row.shared_bytes["guest_kernel"],
            )
            for row in rows
        )
        # Three non-owner VMs share a large part of their kernel area.
        assert all(fraction > 0.3 for fraction in kernel_shared[1:])

    def test_class_metadata_unshared(self, daytrader_baseline):
        """Fig. 3(a): without preloading, TPS shares almost none of the
        class metadata."""
        for row in daytrader_baseline.java_breakdown.rows:
            assert row.shared_fraction(MemoryCategory.CLASS_METADATA) < 0.05

    def test_code_area_shared_for_non_primaries(self, daytrader_baseline):
        """Fig. 3(a): the code area is the one well-shared Java area."""
        for row in daytrader_baseline.java_breakdown.non_primary_rows():
            assert row.shared_fraction(MemoryCategory.CODE) > 0.5

    def test_heap_sharing_tiny(self, daytrader_baseline):
        """§III.A: ≈0.7 % of the heap shared (zero pages)."""
        for row in daytrader_baseline.java_breakdown.non_primary_rows():
            fraction = row.shared_fraction(MemoryCategory.JAVA_HEAP)
            assert fraction < 0.06

    def test_jit_code_and_stacks_unshared(self, daytrader_baseline):
        for row in daytrader_baseline.java_breakdown.non_primary_rows():
            assert row.shared_fraction(MemoryCategory.JIT_CODE) < 0.02
            assert row.shared_fraction(MemoryCategory.STACK) < 0.02


class TestPreloaded:
    def test_class_metadata_mostly_shared(self, daytrader_preloaded):
        """Fig. 5(a): ≈89.6 % of class metadata eliminated for the three
        non-primary JVMs."""
        non_primary = daytrader_preloaded.java_breakdown.non_primary_rows()
        assert len(non_primary) == 3
        for row in non_primary:
            fraction = row.shared_fraction(MemoryCategory.CLASS_METADATA)
            assert 0.80 < fraction < 0.98

    def test_owner_jvm_shares_nothing(self, daytrader_preloaded):
        owner = daytrader_preloaded.java_breakdown.owner_row()
        assert owner.shared_fraction(MemoryCategory.CLASS_METADATA) < 0.05

    def test_total_usage_reduced(
        self, daytrader_baseline, daytrader_preloaded
    ):
        """Fig. 4: total memory of the four guests drops (3648→3314 MB in
        the paper, ≈9 %)."""
        before = daytrader_baseline.vm_breakdown.total_usage()
        after = daytrader_preloaded.vm_breakdown.total_usage()
        reduction = (before - after) / before
        assert 0.04 < reduction < 0.2

    def test_java_savings_grow(
        self, daytrader_baseline, daytrader_preloaded
    ):
        """Fig. 4: non-primary Java savings grow several-fold (20→120 MB
        in the paper)."""

        def non_primary_java_savings(result):
            shares = sorted(
                row.shared_bytes["java"]
                for row in result.vm_breakdown.rows
            )
            return sum(shares[1:]) / len(shares[1:])

        before = non_primary_java_savings(daytrader_baseline)
        after = non_primary_java_savings(daytrader_preloaded)
        assert after > 3 * before


class TestOtherScenarios:
    def test_mixed_apps_preload_shares_middleware(self):
        """Fig. 5(b): different apps in the same WAS still share the
        middleware class pages (the cache serves all of them)."""
        result = run(ScenarioSpec(
            "mixed3", CacheDeployment.SHARED_COPY, scale=SCALE,
            measurement_ticks=TICKS,
        ))
        assert len(result.java_breakdown.rows) == 3
        for row in result.java_breakdown.non_primary_rows():
            assert row.shared_fraction(MemoryCategory.CLASS_METADATA) > 0.6

    def test_tuscany_preload_works_without_was(self):
        """Fig. 5(c): the technique is not WAS-specific."""
        result = run(ScenarioSpec(
            "tuscany3", CacheDeployment.SHARED_COPY, scale=0.2,
            measurement_ticks=TICKS,
        ))
        for row in result.java_breakdown.non_primary_rows():
            assert row.shared_fraction(MemoryCategory.CLASS_METADATA) > 0.6

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run(ScenarioSpec("nope"))

    def test_scenario_names_stable(self):
        assert SCENARIOS == ("daytrader4", "mixed3", "tuscany3")


class TestPerVmCacheAblation:
    def test_per_vm_caches_do_not_share(self):
        """The ablation behind §IV: class sharing alone is not enough —
        the cache file must be *copied*, not regenerated per VM."""
        result = run(ScenarioSpec(
            "daytrader4", CacheDeployment.PER_VM, scale=SCALE,
            measurement_ticks=TICKS,
        ))
        for row in result.java_breakdown.non_primary_rows():
            # A few percent of incidental sharing remains (multi-page ROM
            # classes that happen to land at the same intra-page offset in
            # two caches), but nothing like the shared-copy deployment.
            assert row.shared_fraction(MemoryCategory.CLASS_METADATA) < 0.15
