"""Canonical fingerprinting (repro.exec.fingerprint)."""

import dataclasses
import enum

import pytest

from repro.core.preload import CacheDeployment
from repro.exec.fingerprint import canonical, fingerprint64, fingerprint_hex
from repro.faults import FaultPlan
from repro.faults.plan import FaultRates
from repro.workloads.base import build_workload
from repro.config import (
    Benchmark,
    HugePageSettings,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
)


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclasses.dataclass
class Point:
    x: int
    y: int


class TestCanonical:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "s", b"b"):
            assert canonical(value) == value

    def test_enum(self):
        assert canonical(Color.RED) == ("enum", "Color", "red")

    def test_dataclass_structural(self):
        assert canonical(Point(1, 2)) == (
            "dataclass", "Point", (("x", 1), ("y", 2))
        )

    def test_dict_order_invariant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_set_order_invariant(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})

    def test_unsupported_object_raises(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_fault_plan_identity(self):
        a = FaultPlan(7)
        b = FaultPlan(7)
        c = FaultPlan(8)
        d = FaultPlan(7, FaultRates.uniform(0.5))
        assert canonical(a) == canonical(b)
        assert canonical(a) != canonical(c)
        assert canonical(a) != canonical(d)

    def test_workload_identity_ignores_lazy_universe(self):
        a = build_workload(Benchmark.DAYTRADER)
        b = build_workload(Benchmark.DAYTRADER)
        b.universe()  # force the lazy cache on one of them
        assert canonical(a) == canonical(b)
        assert canonical(a) != canonical(build_workload(Benchmark.TPCW))


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint64("x", 1) == fingerprint64("x", 1)

    def test_hex_width(self):
        assert len(fingerprint_hex("anything")) == 16

    def test_nonzero(self):
        assert fingerprint64() != 0


class TestScenarioRequestFingerprint:
    """Regression for the old benchmark-session cache bug: a
    :class:`ScenarioSpec`'s key must change whenever *any* input that
    affects the result changes — the old dict keyed only on (scenario,
    deployment) and could serve a stale result after
    REPRO_BENCH_SCALE/TICKS changed mid-session."""

    BASE = ScenarioSpec(
        "daytrader4", CacheDeployment.NONE, scale=0.1,
        measurement_ticks=4, seed=1,
    )

    @pytest.mark.parametrize(
        "change",
        [
            {"scenario": "mixed3"},
            {"deployment": CacheDeployment.SHARED_COPY},
            {"scale": 0.2},
            {"measurement_ticks": 6},
            {"seed": 2},
            {"ksm": KsmSettings(scan_policy="incremental")},
            {"faults": FaultPlan(1337)},
            {"guests": 3},
            {"host_ram_fraction": 0.6},
            {"ksm": KsmSettings(enabled=False)},
            {"tiering": TieringSettings(mode="compress")},
            {"hugepages": HugePageSettings(policy="always")},
        ],
    )
    def test_any_field_change_changes_fingerprint(self, change):
        changed = dataclasses.replace(self.BASE, **change)
        assert fingerprint64(self.BASE.cache_parts()) != fingerprint64(
            changed.cache_parts()
        )

    def test_equal_requests_share_fingerprint(self):
        clone = dataclasses.replace(self.BASE)
        assert fingerprint64(self.BASE.cache_parts()) == fingerprint64(
            clone.cache_parts()
        )
        # Settings the testbed ignores: the deployment's None spelling,
        # a block size under THP "never", tuning under tiering "off".
        for ignored in (
            {"deployment": None},
            {"hugepages": HugePageSettings(policy="never", block_pages=64)},
            {"tiering": TieringSettings(mode="off", epoch_ticks=4)},
        ):
            same = dataclasses.replace(self.BASE, **ignored)
            assert fingerprint64(same.cache_parts()) == fingerprint64(
                self.BASE.cache_parts()
            )


def _module_level_fn():
    return None


class TestCallableCanonical:
    def test_functions_canonicalize_by_location(self):
        from repro.exec.fingerprint import canonical

        assert canonical(_module_level_fn) == (
            "fn", __name__, "_module_level_fn"
        )

    def test_workunit_with_fn_field_fingerprints(self):
        from repro.exec.fingerprint import fingerprint64
        from repro.exec.runner import WorkUnit

        unit = WorkUnit(fn=_module_level_fn, args=(1, 2))
        assert fingerprint64(unit) == fingerprint64(
            WorkUnit(fn=_module_level_fn, args=(1, 2))
        )
        assert fingerprint64(unit) != fingerprint64(
            WorkUnit(fn=_module_level_fn, args=(1, 3))
        )
