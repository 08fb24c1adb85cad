"""Frame conservation through collection, validation and accounting.

After every scenario under the fault plans of ``tests/test_faults.py``
and the uniform plans of ``tests/test_columnar_equivalence.py``:

* the ``frame-conservation`` guard of :func:`validate_dump` stays quiet;
* owner-oriented usage equals the frames of the surviving guests' host
  tables, and so does total PSS (relative error 1e-9);
* the frames only quarantined guests map fit in the unattributable
  pages :func:`apply_degradation` assigns those guests.

A pipeline that drops one pass's rows must make the guard fire.
"""

import numpy as np
import pytest

from repro.config import ScenarioSpec
from repro.core import validate
from repro.core.accounting import (
    UserKey,
    UserKind,
    apply_degradation,
    distribution_oriented_accounting,
    owner_oriented_accounting,
)
from repro.core.dump import collect_system_dump
from repro.core.experiments import scenarios
from repro.core.translate import qemu_table_name
from repro.faults import FaultPlan, FaultRates

from tests.oracle import dict_view
from tests.test_faults import PAGE, build_host

#: (build_host seed, fault plan) per scenario; None is a clean run.
SCENARIOS = {
    "clean": (9, None),
    **{str(seed): (9, FaultPlan(seed)) for seed in (7, 42, 1337, 20130421)},
    "3": (9, FaultPlan(3)),
    "77:0.4": (9, FaultPlan(77, FaultRates.uniform(0.4))),
    "1337:0.25": (9, FaultPlan(1337, FaultRates.uniform(0.25))),
    **{
        f"41:{rate}": (23, FaultPlan(41, FaultRates.uniform(rate)))
        for rate in (0.3, 0.7)
    },
}


def table_frames(view, vm_names):
    """Distinct frames the QEMU tables of ``vm_names`` map."""
    frames = set()
    for name in vm_names:
        frames.update(
            view.host.page_tables.get(qemu_table_name(name), {}).values()
        )
    return frames


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_frames_are_conserved(scenario):
    host_seed, plan = SCENARIOS[scenario]
    host, kernels = build_host(seed=host_seed)
    dump = collect_system_dump(host, kernels, faults=plan)
    validation = validate.validate_dump(dump)
    assert "frame-conservation" not in validation.codes()

    view = dict_view(dump)
    surviving = table_frames(view, [guest.vm_name for guest in dump.guests])
    owner = owner_oriented_accounting(dump)
    assert owner.total_usage() == len(surviving) * PAGE
    pss = distribution_oriented_accounting(dump)
    assert pss.total_pss() == pytest.approx(
        len(surviving) * PAGE, rel=1e-9
    )

    apply_degradation(owner, dump, validation, dump.collection)
    quarantined = [
        record for record in dump.collection.guests if record.quarantined
    ]
    only_quarantined = table_frames(
        view, [record.vm_name for record in quarantined]
    ) - surviving
    assigned = sum(
        owner.unattributable_of(UserKey(
            UserKind.VM_SELF, -1, record.vm_index, record.vm_name
        ))
        for record in quarantined
    )
    assert len(only_quarantined) * PAGE <= assigned


def _drop_pass(kind):
    """iter_mapping_chunks without the rows of one user kind's pass."""
    produce = validate.iter_mapping_chunks

    def mutant(dump, registry):
        for chunk in produce(dump, registry):
            if not np.any(chunk[1] == int(kind)):
                yield chunk

    return mutant


@pytest.fixture(scope="module")
def scenario_dump():
    """A daytrader4 dump: Java, daemon, guest-kernel and QEMU rows."""
    spec = ScenarioSpec("daytrader4", scale=0.02, measurement_ticks=1)
    return scenarios.testbed_for(spec).measure().dump


@pytest.mark.parametrize("kind", list(UserKind), ids=lambda k: k.name.lower())
def test_guard_fires_when_a_pass_loses_its_rows(
    monkeypatch, scenario_dump, kind
):
    dump = scenario_dump
    assert validate.validate_dump(dump).findings == []
    monkeypatch.setattr(validate, "iter_mapping_chunks", _drop_pass(kind))
    findings = [
        finding for finding in validate.validate_dump(dump).findings
        if finding.code == "frame-conservation"
    ]
    assert len(findings) == 1 and findings[0].count > 0
    assert not validate.validate_dump(dump).ok
