"""The code area: the JVM executable, shared libraries, and their data.

Table IV's first category.  The paper finds this is the one area TPS shares
well without help (§III.B): the executable files are mapped read-only, so
every VM running the same JVM build caches byte-identical file pages.  The
writable data segments of the libraries are process-private.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.guestos.pagecache import BackingFile
from repro.guestos.process import GuestProcess, Vma
from repro.sim.rng import RngFactory, mix64_many, stable_hash64
from repro.units import pages_for

#: How the file-backed code bytes are split into libraries (fractions of
#: ``profile.code_file_bytes``).  Names follow the J9 JRE layout.
_LIBRARIES = (
    ("libj9vm24.so", 0.28),
    ("libj9jit24.so", 0.34),
    ("libj9gc24.so", 0.12),
    ("libjclscar_24.so", 0.10),
    ("libj9shr24.so", 0.04),
    ("libc-2.5.so", 0.08),
    ("java", 0.04),
)


class CodeArea:
    """File mappings plus private data segments for one JVM process."""

    TAG_FILE = "java:code"
    TAG_DATA = "java:code-data"

    def __init__(
        self,
        process: GuestProcess,
        jvm_build_id: str,
        file_bytes: int,
        data_bytes: int,
        rng: RngFactory,
    ) -> None:
        self.process = process
        self.jvm_build_id = jvm_build_id
        self.file_bytes = file_bytes
        self.data_bytes = data_bytes
        self._rng = rng
        self.file_vmas: List[Vma] = []
        self.data_vma: Vma = None  # type: ignore[assignment]
        self._mapped = False

    def map(self) -> None:
        """Map the executable and libraries; touch the data segments."""
        if self._mapped:
            raise RuntimeError("code area is already mapped")
        page_size = self.process.page_size
        remaining = self.file_bytes
        for name, fraction in _LIBRARIES:
            size = min(remaining, int(self.file_bytes * fraction))
            if size < page_size:
                size = min(remaining, page_size)
            if size <= 0:
                continue
            remaining -= size
            # file_id carries the build id: same JVM version in two VMs
            # means identical file pages (and TPS sharing); different
            # versions never match.
            backing = BackingFile(
                f"{self.jvm_build_id}:{name}", size, page_size
            )
            vma = self.process.mmap_file(backing, self.TAG_FILE)
            self.process.fault_file_pages(vma)
            self.file_vmas.append(vma)
        if remaining > 0:
            backing = BackingFile(
                f"{self.jvm_build_id}:rodata", remaining, page_size
            )
            vma = self.process.mmap_file(backing, self.TAG_FILE)
            self.process.fault_file_pages(vma)
            self.file_vmas.append(vma)
        # Writable data segments: relocated pointers, library globals —
        # private content per process.
        vm_name = self.process.kernel.vm.name
        stream = self._rng.stream("code-data", vm_name, self.process.pid)
        key = stable_hash64("code-data", vm_name, self.process.pid)
        self.data_vma = self.process.mmap_anon(self.data_bytes, self.TAG_DATA)
        npages = pages_for(self.data_bytes, page_size)
        draws = [stream.getrandbits(32) for _ in range(npages)]
        self.process.write_tokens(
            self.data_vma, mix64_many(key, np.arange(npages), draws)
        )
        self._mapped = True

    @property
    def resident_bytes(self) -> int:
        total = sum(
            vma.npages for vma in self.file_vmas
        ) + (self.data_vma.npages if self.data_vma else 0)
        return total * self.process.page_size
