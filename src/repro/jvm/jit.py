"""The JIT compiler: generated code and the compiler's work area.

Table IV's "JIT-compiled code" and "JIT work area" categories.  The paper
rules both out as sharing candidates (§IV.A):

* generated code differs between processes because the JIT specialises on
  runtime profile data — modelled by salting every method body's content
  with a per-process profile value;
* the work area is read-write scratch, discarded after each compilation —
  modelled as pages that keep being rewritten while compilation activity
  lasts.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.guestos.process import GuestProcess, Vma
from repro.mem.region import Region
from repro.sim.rng import RngFactory, mix64, mix64_many, stable_hash64
from repro.units import KiB, MiB, align_up, pages_for

TAG_CODE = "java:jit-code"
TAG_WORK = "java:jit-work"

#: Size of one code-cache segment (J9 allocates the code cache in 2 MiB
#: segments via mmap, so segments are page-aligned everywhere).
CODE_SEGMENT_BYTES = 2 * MiB

#: Average compiled-method body (code + metadata + exception tables).
AVG_METHOD_BYTES = 8 * KiB


class JitCompiler:
    """JIT state for one JVM process."""

    def __init__(
        self,
        process: GuestProcess,
        rng: RngFactory,
        code_bytes: int,
        work_bytes: int,
    ) -> None:
        self.process = process
        self.code_budget_bytes = code_bytes
        self.work_bytes = work_bytes
        vm_name = process.kernel.vm.name
        self._stream = rng.stream("jit", vm_name, process.pid)
        #: The runtime profile the compiler specialises on; different in
        #: every process, which is why two VMs never produce identical
        #: method bodies.
        self.profile_salt = self._stream.getrandbits(64)
        self._code_key = stable_hash64(
            "jitcode", vm_name, process.pid, self.profile_salt
        )
        self._work_key = stable_hash64("jitwork", vm_name, process.pid)
        self._segments: List[Vma] = []
        self._segment_regions: List[Region] = []
        self._methods_compiled = 0
        self._code_bytes_used = 0
        self.work_vma = process.mmap_anon(work_bytes, TAG_WORK)
        self._work_pages = pages_for(work_bytes, process.page_size)
        self._work_epoch = 0

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def compile_bytes(self, num_bytes: int) -> int:
        """Compile methods until ``num_bytes`` of code have been emitted
        (bounded by the remaining code-cache budget).  Returns bytes
        actually emitted."""
        emitted = 0
        budget = min(num_bytes, self.code_budget_bytes - self._code_bytes_used)
        while emitted < budget:
            method_bytes = align_up(
                int(AVG_METHOD_BYTES * (0.5 + self._stream.random() * 1.2)),
                32,
            )
            method_bytes = min(method_bytes, budget - emitted)
            if method_bytes <= 0:
                break
            self._emit(method_bytes)
            emitted += method_bytes
        self._code_bytes_used += emitted
        if emitted:
            self._churn_work_area()
        return emitted

    def _emit(self, method_bytes: int) -> None:
        if (
            not self._segment_regions
            or self._segment_regions[-1].total_bytes + method_bytes
            > CODE_SEGMENT_BYTES
        ):
            self._open_segment()
        content = mix64(self._code_key, self._methods_compiled)
        self._segment_regions[-1].append(content, method_bytes)
        self._methods_compiled += 1

    def _open_segment(self) -> None:
        if self._segment_regions:
            self._flush_last_segment()
        vma = self.process.mmap_anon(CODE_SEGMENT_BYTES, TAG_CODE)
        self._segments.append(vma)
        self._segment_regions.append(Region(self.process.page_size))

    def _flush_last_segment(self) -> None:
        region = self._segment_regions[-1]
        tokens = region.page_tokens()
        if tokens:
            self.process.write_tokens(self._segments[-1], tokens)

    def flush(self) -> None:
        """Write any pending code-cache pages."""
        if self._segment_regions:
            self._flush_last_segment()

    # ------------------------------------------------------------------
    # Work area
    # ------------------------------------------------------------------

    def _churn_work_area(self) -> None:
        """Scratch allocations for in-flight compilations: every page is
        rewritten, so the area never stabilises while the JIT is active."""
        self._work_epoch += 1
        self.process.write_tokens(
            self.work_vma,
            mix64_many(
                self._work_key, np.arange(self._work_pages), self._work_epoch
            ),
        )

    # ------------------------------------------------------------------

    @property
    def methods_compiled(self) -> int:
        return self._methods_compiled

    @property
    def code_bytes_used(self) -> int:
        return self._code_bytes_used

    @property
    def code_budget_left(self) -> int:
        return self.code_budget_bytes - self._code_bytes_used
