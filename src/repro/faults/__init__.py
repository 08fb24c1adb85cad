"""Deterministic fault injection for the dump-collection pipeline.

The paper's §II.B methodology is offline forensics over three-layer
system dumps, and collection has real failure modes: a non-debug kernel
makes a dump unanalyzable, virsh dumps can fail transiently, and the
layers are not snapshotted atomically while KSM keeps scanning.  This
package simulates those failures *reproducibly*: a :class:`FaultPlan`
seeded through :mod:`repro.sim.rng` decides, per guest and per fault
class, what breaks — the same seed always breaks the same things.

The injectors mutate collected dumps (never the live system), exactly
like real collection faults corrupt what lands on disk, so the
validation layer (:mod:`repro.core.validate`) and the degraded-mode
accounting can be exercised against known damage.
"""

from repro.faults.plan import (
    DEFAULT_FAULT_RATES,
    FaultKind,
    FaultPlan,
    FaultRates,
    InjectedFault,
)

__all__ = [
    "DEFAULT_FAULT_RATES",
    "FaultKind",
    "FaultPlan",
    "FaultRates",
    "InjectedFault",
]
