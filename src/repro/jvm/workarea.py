"""The JVM work area: class-library allocations and private JVM data.

Table IV's "JVM work area".  The paper's baseline measurement found ≈9.2 %
of the combined JVM+JIT work area shared, from exactly three sources
(§III.A), all modelled here:

* **NIO socket buffers** (≈half of the sharing): the benchmark drivers
  send the same data to every VM, so the buffers are byte-identical
  across VMs running the *same* benchmark — a coincidence the paper warns
  does not generalise to real workloads;
* **unused parts of malloc-arena blocks**: zero pages;
* **internal data structures allocated in bulk but not yet used**:
  zero pages.

Everything else is process-private read-write data.
"""

from __future__ import annotations

import numpy as np

from repro.guestos.process import GuestProcess
from repro.mem.content import ZERO_TOKEN
from repro.sim.rng import RngFactory, mix64_many, stable_hash64

TAG_NIO = "java:jvm-work:nio"
TAG_SLACK = "java:jvm-work:slack"
TAG_PRIVATE = "java:jvm-work"


class JvmWorkArea:
    """Work-area state for one JVM process."""

    def __init__(
        self,
        process: GuestProcess,
        rng: RngFactory,
        benchmark_id: str,
        nio_bytes: int,
        zero_slack_bytes: int,
        private_bytes: int,
        churn_fraction: float = 0.3,
    ) -> None:
        self.process = process
        self.benchmark_id = benchmark_id
        vm_name = process.kernel.vm.name
        self._stream = rng.stream("jvmwork", vm_name, process.pid)
        # NIO content derives only from the benchmark's request stream,
        # so its key leaves out the VM and the process.
        self._nio_key = stable_hash64("nio", benchmark_id)
        self._private_key = stable_hash64("jvmwork", vm_name, process.pid)
        self.churn_fraction = churn_fraction
        self.nio_vma = process.mmap_anon(nio_bytes, TAG_NIO)
        self.slack_vma = process.mmap_anon(zero_slack_bytes, TAG_SLACK)
        self.private_vma = process.mmap_anon(private_bytes, TAG_PRIVATE)
        self._epoch = 0
        self._initialized = False

    def initialize(self) -> None:
        """Touch the work area once the server is warm."""
        if self._initialized:
            raise RuntimeError("work area already initialised")
        write = self.process.write_tokens
        # NIO buffers: identical in every VM driving the same scenario.
        write(
            self.nio_vma,
            mix64_many(self._nio_key, np.arange(self.nio_vma.npages)),
        )
        # Arena slack and bulk-allocated-but-unused structures: zeros.
        write(self.slack_vma, [ZERO_TOKEN] * self.slack_vma.npages)
        # Private read-write structures.
        self._write_private(np.arange(self.private_vma.npages), 0)
        self._initialized = True

    def _write_private(self, pages: np.ndarray, epoch: int) -> None:
        self.process.write_pages(
            self.private_vma, pages,
            mix64_many(self._private_key, pages, epoch),
        )

    def tick(self) -> None:
        """Per-interval churn of the private read-write portion."""
        if not self._initialized:
            raise RuntimeError("work area not initialised")
        self._epoch += 1
        step = max(1, int(1 / self.churn_fraction)) if self.churn_fraction else 0
        if step:
            self._write_private(
                np.arange(
                    self._epoch % step, self.private_vma.npages, step
                ),
                self._epoch,
            )

    def resident_bytes(self) -> int:
        pages = (
            self.nio_vma.npages
            + self.slack_vma.npages
            + self.private_vma.npages
        )
        return pages * self.process.page_size
