"""Experiment drivers, one per figure of the paper.

Every family is a grid of ``(measure, spec)`` cells over
:class:`repro.config.ScenarioSpec`, run by :func:`run_grid`.
"""

from repro.core.experiments.testbed import (
    GuestSpec,
    KvmTestbed,
    MeasurementResult,
    scale_workload,
)
from repro.core.experiments.scenarios import (
    SCENARIOS,
    ScenarioResult,
    run,
    run_cached,
    run_grid,
    testbed_for,
)
from repro.core.experiments.hugepages import (
    HugePageCurveResult,
    HugePagePoint,
    run_hugepage_tradeoff,
)
from repro.core.experiments.powervm import PowerVmResult, run_powervm_experiment
from repro.core.experiments.consolidation import (
    ConsolidationPoint,
    ConsolidationResult,
    footprint,
    run_daytrader_consolidation,
    run_specj_consolidation,
)
from repro.core.experiments.pressure import (
    PRESSURE_ARMS,
    PressureArmResult,
    PressureFamilyResult,
    pressure_arm,
    run_pressure_family,
)

__all__ = [
    "GuestSpec",
    "KvmTestbed",
    "MeasurementResult",
    "scale_workload",
    "SCENARIOS",
    "ScenarioResult",
    "run",
    "run_cached",
    "run_grid",
    "testbed_for",
    "HugePageCurveResult",
    "HugePagePoint",
    "run_hugepage_tradeoff",
    "PowerVmResult",
    "run_powervm_experiment",
    "ConsolidationPoint",
    "ConsolidationResult",
    "footprint",
    "run_daytrader_consolidation",
    "run_specj_consolidation",
    "PRESSURE_ARMS",
    "PressureArmResult",
    "PressureFamilyResult",
    "pressure_arm",
    "run_pressure_family",
]
