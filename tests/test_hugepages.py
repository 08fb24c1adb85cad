"""Property suite for the huge-block overlay and split-on-KSM-merge.

Huge blocks are a pure grouping overlay on the host page table —
subpages keep their individual 4 KiB tokens — so the central economic
claim is testable as an exact invariant: a universe that collapses
ranges into huge blocks and then lets KSM split its way through them
converges to *byte-identical* sharing as an all-4 KiB twin.  Hypothesis
drives random contents and block layouts through that round-trip, checks
that collapse never absorbs a KSM-shared page, and runs the production
scanner in lockstep with the per-page oracle of :mod:`tests.oracle` over
huge-backed universes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.validate import validate_thp
from repro.ksm.scanner import KsmConfig, KsmScanner
from repro.mem.address_space import PageTable
from repro.mem.physmem import STABLE, HostPhysicalMemory
from repro.sim.clock import SimClock

from tests.oracle import PerPageScanner, use_oracle
from tests.test_golden_figures import golden_report, report_json

BLOCK = 4
N_RANGES = 8
N_VPNS = BLOCK * N_RANGES
N_TOKENS = 5


def build_universe(tokens, block_ranges=(), scanner_class=KsmScanner):
    """One table mapped with ``tokens``, huge blocks over the ranges."""
    physmem = HostPhysicalMemory(capacity_bytes=1 << 26, page_size=4096)
    scanner = scanner_class(physmem, SimClock(), KsmConfig())
    table = PageTable("t0")
    for vpn, token in enumerate(tokens):
        physmem.map_token(table, vpn, token)
    for index in sorted(block_ranges):
        bid = physmem.form_block(table, index * BLOCK, BLOCK)
        assert bid is not None  # fresh refcount-1 frames always collapse
    scanner.register(table)
    return physmem, scanner, table


tokens_strategy = st.lists(
    st.integers(1, N_TOKENS), min_size=N_VPNS, max_size=N_VPNS
)
ranges_strategy = st.sets(st.integers(0, N_RANGES - 1))


class TestSplitRemergeRoundTrip:
    @given(tokens=tokens_strategy, block_ranges=ranges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_savings_identical_to_all_4k(self, tokens, block_ranges):
        """Splitting for KSM round-trips to the all-4KiB savings."""
        physmem, scanner, table = build_universe(tokens, block_ranges)
        ref_pm, ref, ref_table = build_universe(tokens)
        scanner.run_until_converged(max_passes=8)
        ref.run_until_converged(max_passes=8)
        assert scanner.saved_bytes == ref.saved_bytes
        assert physmem.frames_in_use == ref_pm.frames_in_use
        assert table.snapshot() == ref_table.snapshot()
        assert {
            vpn: physmem.read_token(table, vpn)
            for vpn, _ in table.entries()
        } == {
            vpn: ref_pm.read_token(ref_table, vpn)
            for vpn, _ in ref_table.entries()
        }
        assert ref.stats.thp_splits == 0
        report = validate_thp(physmem)
        assert report.ok, report.render()

    @given(tokens=tokens_strategy, block_ranges=ranges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_no_merged_page_inside_intact_block(self, tokens, block_ranges):
        """After convergence every intact block holds private frames."""
        physmem, scanner, table = build_universe(tokens, block_ranges)
        scanner.run_until_converged(max_passes=8)
        for block in physmem.iter_blocks():
            for fid in block.fids:
                assert physmem.is_live(fid)
                assert physmem.states[fid] != STABLE
                assert physmem.refs[fid] == 1
                assert physmem.block_of(fid) == block.bid
        assert (
            physmem.blocks_formed - physmem.blocks_split
            == physmem.blocks_intact
        )


class TestCollapseEligibility:
    @given(tokens=tokens_strategy, block_ranges=ranges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_collapse_never_absorbs_shared_page(self, tokens, block_ranges):
        """form_block refuses every range that contains a stable frame."""
        physmem, scanner, table = build_universe(tokens)
        scanner.run_until_converged(max_passes=8)
        formed_before = physmem.blocks_formed
        for index in sorted(block_ranges):
            base = index * BLOCK
            vpns = range(base, base + BLOCK)
            shareable = any(
                physmem.is_live(fid := table.translate(vpn))
                and (physmem.states[fid] == STABLE or physmem.refs[fid] != 1)
                for vpn in vpns
                if table.is_mapped(vpn)
            )
            bid = physmem.form_block(table, base, BLOCK)
            if shareable:
                assert bid is None
            if bid is not None:
                for vpn in vpns:
                    fid = table.translate(vpn)
                    assert physmem.is_live(fid)
                    assert physmem.states[fid] != STABLE
                    assert physmem.refs[fid] == 1
        assert physmem.blocks_formed >= formed_before
        report = validate_thp(physmem)
        assert report.ok, report.render()


class TestEngineLockstepWithHugePages:
    @given(tokens=tokens_strategy, block_ranges=ranges_strategy)
    @settings(max_examples=40, deadline=None)
    def test_object_vs_batch(self, tokens, block_ranges):
        """Identical merges *and* identical thp_splits as the oracle."""
        obj_pm, obj, obj_table = build_universe(
            tokens, block_ranges, PerPageScanner
        )
        bat_pm, bat, bat_table = build_universe(tokens, block_ranges)
        obj.run_until_converged(max_passes=8)
        bat.run_until_converged(max_passes=8)
        assert obj.snapshot_stats() == bat.snapshot_stats()
        assert obj.stats.thp_splits == bat.stats.thp_splits
        assert obj_table.snapshot() == bat_table.snapshot()
        assert obj_pm.frames_in_use == bat_pm.frames_in_use
        assert obj_pm.blocks_intact == bat_pm.blocks_intact
        assert (
            obj_pm.block_splits_by_reason == bat_pm.block_splits_by_reason
        )


class TestBlockMechanics:
    def test_split_is_idempotent(self):
        physmem, _, table = build_universe([1, 2, 3, 4] * N_RANGES, {0})
        (block,) = list(physmem.iter_blocks())
        assert physmem.split_block(block.bid) is True
        assert physmem.split_block(block.bid) is False
        assert physmem.blocks_intact == 0
        assert physmem.blocks_split == 1

    def test_unmap_auto_splits(self):
        """Freeing any subpage dissolves the block (reason 'free')."""
        physmem, _, table = build_universe(
            list(range(1, N_VPNS + 1)), {0}
        )
        physmem.unmap(table, 0)
        assert physmem.blocks_intact == 0
        assert physmem.block_splits_by_reason == {"free": 1}

    def test_stable_marking_inside_block_is_refused(self):
        physmem, _, table = build_universe([1, 2, 3, 4] * N_RANGES, {0})
        fid = table.translate(0)
        with pytest.raises(ValueError):
            physmem.mark_ksm_stable(fid)

    def test_validate_thp_flags_shared_frame_in_block(self):
        """A corrupted overlay is caught by the ERROR-level checks."""
        physmem, _, table = build_universe([1, 2, 3, 4] * N_RANGES, {0})
        fid = table.translate(0)
        physmem.states[fid] = STABLE  # bypass the guard
        report = validate_thp(physmem)
        assert not report.ok
        assert "thp-shared-in-block" in report.codes()


class TestScenarioLevel:
    KWARGS = dict(scale=0.02, measurement_ticks=2, seed=20130421)

    def _spec(self, policy):
        from repro.config import HugePageSettings, ScenarioSpec

        hugepages = (
            HugePageSettings()
            if policy == "never"
            else HugePageSettings(policy=policy, block_pages=16)
        )
        return ScenarioSpec(
            scenario="daytrader4",
            hugepages=hugepages,
            **self.KWARGS,
        )

    @pytest.mark.parametrize("policy", ["always", "khugepaged"])
    def test_savings_survive_thp(self, policy):
        """Scenario savings are policy-invariant; only the splits vary."""
        from repro.core.experiments.scenarios import run

        base = run(self._spec("never"))
        huge = run(self._spec(policy))
        assert huge.ksm_stats.pages_saved == base.ksm_stats.pages_saved
        assert huge.ksm_stats.merges == base.ksm_stats.merges
        assert base.ksm_stats.thp_splits == 0
        assert huge.ksm_stats.thp_splits > 0
        thp = huge.ksm_stats.extra["thp"]
        assert thp["blocks_formed"] - thp["blocks_split"] == (
            thp["intact_blocks"]
        )
        assert huge.validation_report is not None
        assert huge.validation_report.ok

    def test_khugepaged_splits_less_than_always(self):
        from repro.core.experiments.scenarios import run

        always = run(self._spec("always"))
        khuge = run(self._spec("khugepaged"))
        assert khuge.ksm_stats.thp_splits <= always.ksm_stats.thp_splits

    @pytest.mark.parametrize("policy", ["always", "khugepaged"])
    def test_engines_identical_at_scenario_level(self, policy, monkeypatch):
        from repro.core.experiments.scenarios import run

        bat = run(self._spec(policy))
        use_oracle(monkeypatch)
        ref = run(self._spec(policy))
        assert ref.ksm_stats == bat.ksm_stats
        assert ref.vm_breakdown.rows == bat.vm_breakdown.rows
        assert ref.accounting == bat.accounting

    def test_thp_survives_fault_injection(self):
        """Huge-block validation composes with the fault-plan report."""
        from repro.config import ScenarioSpec
        from repro.core.experiments.scenarios import run
        from repro.faults import FaultPlan

        spec = self._spec("always")
        import dataclasses

        spec = dataclasses.replace(
            spec, faults=FaultPlan.from_spec("1337:0.2")
        )
        result = run(spec)
        assert result.validation_report is not None
        assert "thp-shared-in-block" not in result.validation_report.codes()
        assert "thp-block-accounting" not in result.validation_report.codes()


class TestTradeoffCurve:
    def test_curve_serial_equals_parallel(self, tmp_path):
        from repro.core.experiments.hugepages import run_hugepage_tradeoff

        kwargs = dict(
            scale=0.02,
            measurement_ticks=2,
            block_pages=16,
            scenarios=("daytrader4",),
        )
        serial = run_hugepage_tradeoff(**kwargs)
        parallel = run_hugepage_tradeoff(jobs=2, **kwargs)
        assert serial.to_dict() == parallel.to_dict()
        assert report_json(serial.to_dict()) == golden_report("hugepages")
        saved = {
            point.saved_bytes for point in serial.points.values()
        }
        assert len(saved) == 1  # savings are policy-invariant
        never = serial.point("daytrader4", "never")
        always = serial.point("daytrader4", "always")
        assert never.thp_splits == 0 and never.tlb_multiplier == 1.0
        assert always.thp_splits > 0
        assert always.tlb_multiplier > 1.0
        assert always.huge_bytes_sacrificed == (
            always.thp_splits * 16 * 4096
        )
        for point in serial.points.values():
            assert point.validation_codes == []

    def test_single_scenario_curve_prices_its_own_pressure(self):
        """A curve restricted to one scenario takes its pressure points
        and fleet estimate from that scenario."""
        from repro.config import THP_POLICIES
        from repro.core.experiments.hugepages import run_hugepage_tradeoff

        curve = run_hugepage_tradeoff(
            scale=0.02, measurement_ticks=1, scenarios=("tuscany3",)
        )
        assert set(curve.points) == {
            ("tuscany3", policy) for policy in THP_POLICIES
        }
        assert set(curve.pressure) == set(THP_POLICIES)
        assert set(curve.fleet) == set(THP_POLICIES)
        for policy in THP_POLICIES:
            point = curve.point("tuscany3", policy)
            row = curve.fleet[policy]
            assert row["hosts"] == curve.to_dict()["fleet_hosts"] == 24
            assert row["saved_bytes"] == point.saved_bytes * 24
            assert row["throughput_fraction"] == point.throughput_fraction
