"""Scenario-level check: the default path against the reference path.

The default path runs the ``batch`` scan engine with the ``columnar``
dump-analysis backend; the per-page ``object`` engine with the ``dict``
backend stays as the opt-in reference.  Each case below runs one small
testbed both ways and requires identical results: KSM statistics,
breakdowns, owner accounting and, under a fault plan, the collection
and validation reports.  The cases cover each scan policy, fault
injection, the combined tiering mode and a huge-page policy, so every
path that reaches the scanner or the analysis backend is compared.
"""

import dataclasses

import pytest

from repro.config import (
    HugePageSettings,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
)
from repro.core.columnar.backend import (
    BACKEND_DICT,
    ENV_BACKEND,
    resolve_backend,
)
from repro.core.experiments.scenarios import run
from repro.faults import FaultPlan

BASE = ScenarioSpec("daytrader4", scale=0.02, measurement_ticks=2)

CASES = {
    "full": BASE,
    "incremental": dataclasses.replace(
        BASE, ksm=KsmSettings(scan_policy="incremental")
    ),
    "hybrid": dataclasses.replace(BASE, ksm=KsmSettings(scan_policy="hybrid")),
    "faults": dataclasses.replace(
        BASE, faults=FaultPlan.from_spec("1337:0.2")
    ),
    "tiering-combined": dataclasses.replace(
        BASE, tiering=TieringSettings(mode="combined")
    ),
    "thp-always": dataclasses.replace(
        BASE, hugepages=HugePageSettings(policy="always", block_pages=16)
    ),
}


def reference(spec: ScenarioSpec) -> ScenarioSpec:
    """The same run on the per-page engine and the dict backend."""
    return dataclasses.replace(
        spec,
        ksm=dataclasses.replace(spec.ksm, scan_engine="object"),
        backend=BACKEND_DICT,
    )


def test_default_path_is_not_the_reference():
    """Otherwise the comparisons below would compare a path with itself."""
    assert BASE.ksm.scan_engine != "object"
    assert resolve_backend(BASE.backend) != BACKEND_DICT


@pytest.mark.parametrize("spec", CASES.values(), ids=CASES.keys())
def test_default_path_matches_reference(spec, monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    default = run(spec)
    ref = run(reference(spec))
    assert default.ksm_stats == ref.ksm_stats
    assert default.vm_breakdown.rows == ref.vm_breakdown.rows
    assert default.java_breakdown.rows == ref.java_breakdown.rows
    assert default.accounting == ref.accounting
    assert (
        default.collection_report.render() == ref.collection_report.render()
    )
    if spec.faults is not None:
        assert (
            default.validation_report.render()
            == ref.validation_report.render()
        )
