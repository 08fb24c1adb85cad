"""The JavaVM orchestrator: wires the seven Table-IV components together.

A :class:`JavaVM` lives inside one guest process.  ``startup()`` builds the
memory image the way a WebSphere start does — map the code area, attach the
shared class cache (when ``-Xshareclasses`` is configured *and* a cache
file is present), load the startup classes, JIT-compile the hot set, touch
the heap to its steady footprint, initialise the work areas and stacks.
``tick()`` then models one measurement interval of server activity: lazy
class loads, more JIT compilation, heap mutation and GC, work-area churn,
stack churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import JvmConfig
from repro.guestos.malloc import MallocModel
from repro.guestos.pagecache import BackingFile
from repro.guestos.process import GuestProcess, Vma
from repro.jvm.classes import ClassMetadata, TAG_CACHE
from repro.jvm.codearea import CodeArea
from repro.jvm.gc import HeapModel, build_heap
from repro.jvm.jit import JitCompiler
from repro.jvm.sharedcache import SharedClassCache
from repro.jvm.stacks import ThreadStacks
from repro.jvm.workarea import JvmWorkArea
from repro.sim.rng import RngFactory
from repro.workloads.classsets import ClassUniverse, JavaClassDef
from repro.workloads.profile import WorkloadProfile

#: Fraction of the JIT code budget compiled during startup; the rest is
#: spread over the run.
_STARTUP_JIT_FRACTION = 0.6
_TICK_JIT_FRACTION = 0.1

#: Number of ticks over which the lazily loaded classes trickle in.
_RUNTIME_LOAD_TICKS = 4


@dataclass
class AttachedCache:
    """A shared class cache as seen by one JVM: layout + file content.

    ``layout`` fixes *where* each class lives; ``backing`` fixes the byte
    content of the file this VM maps.  When the paper's technique copies
    one cache file everywhere, all JVMs get the same layout *and* the same
    content; with independently created caches, both differ per VM.
    """

    layout: SharedClassCache
    backing: BackingFile


def populate_cache(
    universe: ClassUniverse,
    config: JvmConfig,
    page_size: int,
    creator_id: str,
    rng: RngFactory,
    jvm_build_id: str = "ibm-j9-java6-sr9",
) -> SharedClassCache:
    """The cold run: create and populate a shared class cache.

    The populating JVM stores classes in *its* load order, including the
    per-process perturbation — so two caches populated in different VMs
    have different layouts even for identical class sets.
    """
    cache = SharedClassCache(
        config.cache_name,
        config.shared_cache_bytes,
        page_size,
        creator_id,
        jvm_build_id=jvm_build_id,
    )
    order = universe.perturbed_order(
        universe.all_classes, rng, who=f"populate:{creator_id}"
    )
    cache.populate(order)
    cache.seal()
    return cache


class JavaVM:
    """One Java VM process."""

    def __init__(
        self,
        process: GuestProcess,
        config: JvmConfig,
        profile: WorkloadProfile,
        universe: ClassUniverse,
        rng: RngFactory,
        cache: Optional[AttachedCache] = None,
        jvm_build_id: str = "ibm-j9-java6-sr9",
    ) -> None:
        if cache is not None and not config.share_classes:
            raise ValueError(
                "a cache file was supplied but -Xshareclasses is off"
            )
        self.process = process
        self.config = config
        self.profile = profile
        self.universe = universe
        self.rng = rng
        self.jvm_build_id = jvm_build_id
        #: Set when an attached cache was refused at validation time (the
        #: J9 behaviour for caches written by a different JVM build: the
        #: VM keeps running and loads classes privately).
        self.cache_rejected = False
        if cache is not None and cache.layout.jvm_build_id != jvm_build_id:
            self.cache_rejected = True
            cache = None
        self.malloc = MallocModel(process, rng)
        self.code = CodeArea(
            process, jvm_build_id,
            profile.code_file_bytes, profile.code_data_bytes, rng,
        )
        self.cache_vma: Optional[Vma] = None
        self._attached: Optional[AttachedCache] = cache
        if cache is not None:
            self.cache_vma = process.mmap_file(cache.backing, TAG_CACHE)
        self.classes = ClassMetadata(
            process, self.malloc, rng,
            cache=cache.layout if cache else None,
            cache_vma=self.cache_vma,
        )
        self.jit = JitCompiler(
            process, rng, profile.jit_code_bytes, profile.jit_work_bytes
        )
        self.heap: HeapModel = build_heap(
            process,
            config.gc_policy,
            config.heap_bytes,
            profile.heap_touched_fraction,
            profile.gc_zero_tail_bytes,
            profile.heap_dirty_fraction,
            nursery_bytes=config.nursery_bytes,
            tenured_bytes=config.tenured_bytes,
        )
        self.work = JvmWorkArea(
            process, rng,
            benchmark_id=f"{profile.benchmark.value}:{profile.middleware_id}",
            nio_bytes=profile.nio_buffer_bytes,
            zero_slack_bytes=profile.zero_slack_bytes,
            private_bytes=profile.private_work_bytes,
        )
        self.stacks = ThreadStacks(
            process, rng,
            thread_count=profile.thread_count,
            stack_bytes=profile.stack_bytes_per_thread,
        )
        self._runtime_batches: List[List[JavaClassDef]] = []
        self._tick_index = 0
        self._started = False

    # ------------------------------------------------------------------

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def cache_attached(self) -> bool:
        return self._attached is not None

    def startup(self) -> None:
        """Server start: build the steady-state memory image."""
        if self._started:
            raise RuntimeError("JVM already started")
        self.code.map()
        startup_order = self.universe.perturbed_order(
            self.universe.startup_classes(),
            self.rng,
            who=f"{self.process.kernel.vm.name}:{self.pid}",
        )
        self.classes.load_classes(startup_order)
        self._runtime_batches = self._split_runtime_classes()
        self.jit.compile_bytes(
            int(self.jit.code_budget_bytes * _STARTUP_JIT_FRACTION)
        )
        self.jit.flush()
        self.heap.initialize()
        self.work.initialize()
        self.stacks.initialize()
        self._started = True

    def _split_runtime_classes(self) -> List[List[JavaClassDef]]:
        runtime = self.universe.perturbed_order(
            self.universe.runtime_classes(),
            self.rng,
            who=f"{self.process.kernel.vm.name}:{self.pid}:runtime",
        )
        if not runtime:
            return []
        size = -(-len(runtime) // _RUNTIME_LOAD_TICKS)
        return [
            runtime[start : start + size]
            for start in range(0, len(runtime), size)
        ]

    def tick(self) -> None:
        """One measurement interval of server activity."""
        if not self._started:
            raise RuntimeError("JVM not started")
        index = self._tick_index
        self._tick_index += 1
        if index < len(self._runtime_batches):
            self.classes.load_classes(self._runtime_batches[index])
        if self.jit.code_budget_left > 0:
            emitted = self.jit.compile_bytes(
                int(self.jit.code_budget_bytes * _TICK_JIT_FRACTION)
            )
            if emitted:
                self.jit.flush()
        self.heap.tick()
        self.work.tick()
        self.stacks.tick()

    # ------------------------------------------------------------------

    def resident_bytes(self) -> int:
        """Guest-resident footprint of the whole process."""
        return self.process.resident_bytes()

    @property
    def ticks_run(self) -> int:
        return self._tick_index

    def __repr__(self) -> str:
        return (
            f"JavaVM(pid={self.pid}, vm={self.process.kernel.vm.name!r}, "
            f"benchmark={self.profile.benchmark.value!r}, "
            f"cache={'on' if self.cache_attached else 'off'})"
        )
