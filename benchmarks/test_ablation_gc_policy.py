"""Ablation A4 — GC policy vs heap sharing (§III.B, §V.C).

The paper explains that *any* moving collector defeats TPS on the heap:
the flat-heap collector (optthruput) at least leaves zero-filled tails
briefly mergeable, while the generational collector (gencon) rewrites the
whole nursery on every scavenge, so even that disappears.  Either way the
class-preloading benefit is GC-independent — which is how the paper can
use gencon for Fig. 8.
"""

from conftest import BENCH_SCALE
from repro.config import GcPolicy, ScenarioSpec
from repro.core.categories import MemoryCategory
from repro.core.experiments import scenarios
from repro.core.preload import CacheDeployment
from repro.core.report import render_series

#: The two-guest SPECjEnterprise testbed of each policy.
_SCENARIO = {
    GcPolicy.OPTTHRUPUT: "specj3-optthruput",
    GcPolicy.GENCON: "specj3",
}


def run_policy(policy: GcPolicy):
    return scenarios.testbed_for(ScenarioSpec(
        _SCENARIO[policy],
        CacheDeployment.SHARED_COPY,
        scale=BENCH_SCALE,
        measurement_ticks=3,
        guests=2,
    )).measure()


def run():
    return {
        policy: run_policy(policy)
        for policy in (GcPolicy.OPTTHRUPUT, GcPolicy.GENCON)
    }


def test_ablation_gc_policy(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    heap = {}
    classes = {}
    for policy, result in results.items():
        rows = result.java_breakdown.non_primary_rows()
        heap[policy.value] = sum(
            row.shared_fraction(MemoryCategory.JAVA_HEAP) for row in rows
        ) / len(rows)
        classes[policy.value] = sum(
            row.shared_fraction(MemoryCategory.CLASS_METADATA)
            for row in rows
        ) / len(rows)
    print()
    print(render_series(
        "A4: TPS sharing by GC policy (non-primary JVM average)",
        "GC policy",
        list(heap.keys()),
        {
            "heap shared fraction": list(heap.values()),
            "class metadata shared fraction": list(classes.values()),
        },
        y_format="{:10.3f}",
    ))

    # The heap never shares meaningfully under either policy.
    assert heap["optthruput"] < 0.06
    assert heap["gencon"] < 0.06
    # The preloading benefit is GC-independent (paper §V.C: "not limited
    # to a specific benchmark or a GC policy").
    assert classes["optthruput"] > 0.8
    assert classes["gencon"] > 0.8
