"""Scenario-level check: the production path against the oracle.

Production runs the columnar KSM scanner and the columnar dump
analysis; the oracle (:mod:`tests.oracle`) runs the per-page scanner
and the per-frame dict accounting.  Each case below runs one small
testbed both ways and requires identical results: KSM statistics,
breakdowns, owner accounting and, under a fault plan, the collection
and validation reports.  The cases cover each scan policy, fault
injection, the combined tiering mode and a huge-page policy, so every
path that reaches the scanner or the dump analysis is compared.
"""

import dataclasses

import pytest

from repro.config import (
    HugePageSettings,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
)
from repro.core.experiments import testbed
from repro.core.experiments.scenarios import run
from repro.faults import FaultPlan
from repro.hypervisor import kvm

from tests.oracle import use_oracle

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


def test_default_path_is_not_the_reference(monkeypatch):
    """Otherwise the comparisons below would compare a path with itself."""
    scanner = kvm.KsmScanner
    accounting = testbed.owner_oriented_accounting
    use_oracle(monkeypatch)
    assert kvm.KsmScanner is not scanner
    assert testbed.owner_oriented_accounting is not accounting


@pytest.mark.parametrize("spec", CASES.values(), ids=CASES.keys())
def test_default_path_matches_reference(spec, monkeypatch):
    default = run(spec)
    use_oracle(monkeypatch)
    ref = run(spec)
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
