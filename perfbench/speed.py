"""CPU-speed sampling, to report times at a fixed reference speed.

The benchmark runs on shared virtual CPUs whose speed swings by up to
2x in phases of seconds to minutes, as other tenants load the same
cores, and the two CPUs of a 2-vCPU guest swing almost independently
(correlation 0.39 over one minute).  Raw wall times inherit that swing,
so their run-to-run spread hides any change smaller than it.  A :class:`Speedometer` times a fixed reference loop
every 50 ms on each CPU the regeneration runs on, over exactly the
interval being measured, and :meth:`Speedometer.slowdown` is the mean
loop time over its uncontended time ``REF_LOOP_S``.  Dividing a measured
time by it gives seconds at the reference speed.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import threading
import time
from typing import Iterable, List

#: Iterations of the reference loop.
REF_LOOP = 1500
#: The loop's time on an uncontended core of the machine the benchmark
#: was defined on (Intel Xeon, 2 vCPUs, Python 3.11): the floor of
#: 3000 samples.
REF_LOOP_S = 0.76e-3
#: Seconds between samples on one CPU (about 2 % of its time).
PERIOD_S = 0.05
#: Samples longer than this many reference times were preempted, not
#: slowed: they are clipped so one time slice does not count as a phase.
CLIP = 3.0


def reference_loop() -> float:
    """Seconds one run of the reference loop takes, now, on this CPU.

    Short BLAKE2b digests of formatted bytes: the simulator's own kind
    of work (``stable_hash64``).  Of the loops tried on ``fig3c_steady``
    in slow and fast phases (integer sums, random reads of an 8 MiB
    buffer, dict probes, this one), it tracked the regeneration's
    slowdown best: run-to-run spread 38 % raw, 12 % divided by it.
    """
    started = time.perf_counter()
    for value in range(REF_LOOP):
        hashlib.blake2b(b"i%d" % value, digest_size=8).digest()
    return time.perf_counter() - started


def slowdown_of(samples: Iterable[float]) -> float:
    """Mean clipped sample time over ``REF_LOOP_S`` (1.0 = uncontended)."""
    clipped = [min(sample, CLIP * REF_LOOP_S) for sample in samples]
    return statistics.fmean(clipped) / REF_LOOP_S if clipped else 1.0


class Speedometer:
    """Samples the reference loop on each of ``cpus`` while in use."""

    def __init__(self, cpus: List[int]) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in cpus
        ]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only, on Linux
        while not self._stop.wait(PERIOD_S):
            self.samples.append(reference_loop())

    def __enter__(self) -> "Speedometer":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def slowdown(self) -> float:
        return slowdown_of(self.samples)
