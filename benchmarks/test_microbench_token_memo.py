"""Micro-benchmark — the page-token memo on the daytrader4 shape.

Page tokens are the simulator's stand-in for page contents: every
mapped region computes one BLAKE2b digest per page.  Identical layouts
recur constantly — four guests booted from one image load the same
middleware at the same intra-page offsets — so
:mod:`repro.mem.content` memoizes the digest per slice layout.  This
bench pins down (a) the memo is exact (same tokens as direct hashing),
(b) repeated layouts are served from the memo, and (c) the hit rate on
the paper's Fig. 2/3(a) scenario stays high enough to matter.
"""

import time

from repro.config import ScenarioSpec
from repro.core.experiments.scenarios import run as run_spec
from repro.core.preload import CacheDeployment
from repro.mem.content import (
    token_memo_clear,
    token_memo_stats,
    uniform_tokens,
)

from conftest import BENCH_SCALE, BENCH_TICKS

PAGE = 4096

#: Four identical DayTrader guests share image, middleware and JCL
#: layouts; about a third of all token computations repeat (the rest is
#: per-VM jittered heap/JIT content, which must *not* hit the memo).
MIN_HIT_RATE = 0.25


def test_repeated_uniform_layouts_all_hit():
    token_memo_clear()
    ids = list(range(1, 2001))
    cold_started = time.perf_counter()
    first = uniform_tokens(ids, PAGE)
    cold_elapsed = time.perf_counter() - cold_started
    warm_started = time.perf_counter()
    second = uniform_tokens(ids, PAGE)
    warm_elapsed = time.perf_counter() - warm_started
    assert second == first
    stats = token_memo_stats()
    assert stats["misses"] == len(ids)
    assert stats["hits"] == len(ids)
    print(
        f"\nuniform_tokens x{len(ids)}: cold {cold_elapsed * 1e6:.0f} us, "
        f"memoized {warm_elapsed * 1e6:.0f} us"
    )


def test_token_memo_hit_rate_on_daytrader4(benchmark):
    token_memo_clear()

    def run():
        return run_spec(ScenarioSpec(
            "daytrader4",
            CacheDeployment.NONE,
            scale=min(BENCH_SCALE, 0.05),
            measurement_ticks=min(BENCH_TICKS, 2),
        ))

    benchmark.pedantic(run, rounds=1, iterations=1)
    stats = token_memo_stats()
    total = stats["hits"] + stats["misses"]
    hit_rate = stats["hits"] / total if total else 0.0
    print(
        f"\ntoken memo on daytrader4: {stats['hits']}/{total} hits "
        f"({hit_rate:.0%}), {stats['entries']} entries"
    )
    assert total > 0
    assert hit_rate > MIN_HIT_RATE
