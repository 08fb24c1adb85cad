"""Thread stacks.

Table IV's "stack" category: C stacks plus Java stacks.  The paper rules
stacks out for sharing — read-write, full of pointers to process-private
structures (§IV.A).  Modelled as per-thread regions whose active portion
is rewritten every tick, so they also fail KSM's volatility filter.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.guestos.process import GuestProcess, Vma
from repro.sim.rng import RngFactory, mix64_many, stable_hash64


TAG_STACK = "java:stack"


class ThreadStacks:
    """All thread stacks of one JVM process."""

    def __init__(
        self,
        process: GuestProcess,
        rng: RngFactory,
        thread_count: int,
        stack_bytes: int,
        active_fraction: float = 0.5,
    ) -> None:
        if thread_count <= 0:
            raise ValueError("a JVM has at least one thread")
        self.process = process
        self._key = stable_hash64("stack", process.kernel.vm.name, process.pid)
        self.active_fraction = active_fraction
        self.stacks: List[Vma] = [
            process.mmap_anon(stack_bytes, TAG_STACK)
            for _ in range(thread_count)
        ]
        self._epoch = 0

    def initialize(self) -> None:
        """Touch every stack (threads have run at least once)."""
        self._write(epoch=0, fraction=1.0)

    def tick(self) -> None:
        """Frames churn: the active depth is rewritten with fresh pointers."""
        self._epoch += 1
        self._write(epoch=self._epoch, fraction=self.active_fraction)

    def _write(self, epoch: int, fraction: float) -> None:
        for thread_index, vma in enumerate(self.stacks):
            depth = max(1, int(vma.npages * fraction))
            self.process.write_tokens(
                vma,
                mix64_many(self._key, thread_index, np.arange(depth), epoch),
            )

    def resident_bytes(self) -> int:
        return sum(
            len([1 for i in range(vma.npages)
                 if self.process.page_table.is_mapped(vma.start_vpn + i)])
            for vma in self.stacks
        ) * self.process.page_size
