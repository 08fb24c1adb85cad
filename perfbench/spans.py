"""Layer spans for the traced benchmark pass, installed from outside.

The benchmark never edits the program: it wraps the public entry point
of each layer where its caller looks the name up (a class attribute for
methods, the calling module's global for imported functions) and keeps
one span stack in memory.  A layer's self time is its span duration
minus the time of the spans it caused, so the self times of all layers
never overlap and their sum is the traced wall they cover.

An entry point that no longer exists is reported as ``missing`` (a
``None`` metric), never as 0.
"""

from __future__ import annotations

import importlib
import pkgutil
import resource
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional

#: layer -> (module the caller looks the name up in, attribute path).
LAYERS = {
    "experiments.build": ("repro.core.experiments.testbed", "KvmTestbed.build"),
    "guestos.boot": ("repro.guestos.kernel", "GuestKernel.boot"),
    "jvm.startup": ("repro.jvm.jvm", "JavaVM.startup"),
    "jvm.tick": ("repro.jvm.jvm", "JavaVM.tick"),
    "ksm.warmup": ("repro.core.experiments.testbed", "KvmTestbed.warmup"),
    "ksm.scan": ("repro.ksm.scanner", "KsmScanner.run_for_ms"),
    "ksm.clear_unstable": ("repro.ksm.index", "TokenIndex.clear_unstable"),
    "dump.collect": ("repro.core.experiments.testbed", "collect_system_dump"),
    "accounting": ("repro.core.experiments.testbed", "owner_oriented_accounting"),
    "exec.map": ("repro.exec.runner", "ParallelRunner.map"),
}

HASH_MODULE, HASH_NAME = "repro.sim.rng", "stable_hash64"
MEMO_MODULE, MEMO_NAME = "repro.mem.content", "token_memo_stats"
RUNNER_STATS_MODULE, RUNNER_STATS_NAME = "repro.exec.stats", "GLOBAL_RUNNER_STATS"


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _scanner_counts(scanner) -> Dict[str, int]:
    stats = scanner.stats
    return {
        "merges": stats.merges,
        "pages": stats.pages_scanned,
        "passes": stats.full_scans,
        "volatile": stats.volatile_skips,
    }


class Tracer:
    """Span stack plus per-layer self time, totals and counters."""

    def __init__(self) -> None:
        self._stack = []  # [layer, seconds covered by child spans]
        self._active = set()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing = set()
        self.hash_calls = 0

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Import every ``repro`` module, then wrap each layer."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith(".__main__"):  # an entry point, not a layer
                continue
            try:
                importlib.import_module(info.name)
            except ImportError:
                continue
        hooks = {
            "ksm.warmup": self._ksm_hook("warmup", lambda bed: bed.host.ksm),
            "ksm.scan": self._ksm_hook("scan", lambda scanner: scanner),
            "ksm.clear_unstable": self._clear_hook,
            "exec.map": self._map_hook,
        }
        for layer, (module_name, path) in LAYERS.items():
            self._wrap(layer, module_name, path, hooks.get(layer))
        self._count_hash_calls()

    def _resolve(self, module_name: str, path: str):
        """(owner, attribute name) for ``module:path``, or None."""
        module = sys.modules.get(module_name)
        if module is None:
            return None
        owner = module
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if not hasattr(owner, name):
            return None
        return owner, name

    def _wrap(self, layer: str, module_name: str, path: str, hook) -> None:
        found = self._resolve(module_name, path)
        if found is None:
            self.missing.add(layer)
            return
        owner, name = found
        setattr(owner, name, self._span(layer, getattr(owner, name), hook))

    def _span(self, layer: str, fn: Callable, hook) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if layer in tracer._active:  # re-entry: one span per layer
                return fn(*args, **kwargs)
            finish = hook(*args) if hook is not None else None
            frame = [layer, 0.0]
            tracer._stack.append(frame)
            tracer._active.add(layer)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer._stack.pop()
                tracer._active.discard(layer)
                tracer.self_s[layer] += elapsed - frame[1]
                tracer.total_s[layer] += elapsed
                tracer.calls[layer] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                if finish is not None:
                    finish(elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_hash_calls(self) -> None:
        """Rebind ``stable_hash64`` in every module that bound it."""
        rng = sys.modules.get(HASH_MODULE)
        original = getattr(rng, HASH_NAME, None)
        if original is None:
            self.missing.add("hash")
            return
        tracer = self

        def counted(*parts):
            tracer.hash_calls += 1
            return original(*parts)

        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                module, HASH_NAME, None
            ) is original:
                setattr(module, HASH_NAME, counted)

    # -- counter hooks (run before the call; return the after-part) -----

    def _ksm_hook(self, phase: str, scanner_of: Callable):
        """A hook adding the scanner's counter deltas under ``phase.*``."""

        def hook(owner, *_args):
            scanner = scanner_of(owner)
            before = _scanner_counts(scanner)

            def finish(_elapsed):
                for key, value in _scanner_counts(scanner).items():
                    self.counts[f"{phase}.{key}"] += value - before[key]

            return finish

        return hook

    def _clear_hook(self, index):
        self.counts["unstable_cleared"] += index.unstable_count
        return None

    def _map_hook(self, runner, *_args):
        cpu_before = _children_cpu()

        def finish(elapsed):
            self.counts["map.child_cpu_s"] += _children_cpu() - cpu_before
            self.counts["map.capacity_s"] += elapsed * runner.jobs

        return finish

    # -- results -------------------------------------------------------

    def metrics(self, run_s: float) -> Dict[str, Optional[float]]:
        """Per-layer metrics of one traced regeneration (None = missing)."""
        out: Dict[str, Optional[float]] = {}

        def put(name: str, layers, value):
            gone = any(layer in self.missing for layer in layers)
            out[name] = None if gone else value

        own = self.self_s
        counts = self.counts
        put("experiments.build_s", ["experiments.build"], own["experiments.build"])
        put("guestos.boot_s", ["guestos.boot"], own["guestos.boot"])
        put("jvm.startup_s", ["jvm.startup"], own["jvm.startup"])
        put("jvm.tick_s", ["jvm.tick"], own["jvm.tick"])
        put("jvm.tick_calls", ["jvm.tick"], self.calls["jvm.tick"])
        put("hash.calls", ["hash"], self.hash_calls)
        out["content.memo_hit_ratio"] = self._memo_hit_ratio()
        merges = counts["warmup.merges"] + counts["scan.merges"]
        scanned = counts["warmup.pages"] + counts["scan.pages"]
        ksm = ["ksm.warmup", "ksm.scan"]
        put("ksm.warmup_s", ["ksm.warmup"], own["ksm.warmup"])
        put("ksm.merges", ksm, merges)
        put("ksm.merge_ratio", ksm, merges / scanned if scanned else 0.0)
        put("ksm.scan_s", ["ksm.scan"], own["ksm.scan"])
        put("ksm.pages_scanned", ["ksm.scan"], counts["scan.pages"])
        put(
            "ksm.full_scans", ksm,
            counts["warmup.passes"] + counts["scan.passes"],
        )
        pages = counts["scan.pages"]
        put(
            "ksm.us_per_page", ["ksm.scan"],
            self.total_s["ksm.scan"] * 1e6 / pages if pages else 0.0,
        )
        put("ksm.volatile_skips", ["ksm.scan"], counts["scan.volatile"])
        put(
            "ksm.clear_unstable_s", ["ksm.clear_unstable"],
            own["ksm.clear_unstable"],
        )
        put(
            "ksm.unstable_cleared", ["ksm.clear_unstable"],
            counts["unstable_cleared"],
        )
        put("dump.collect_s", ["dump.collect"], own["dump.collect"])
        put("accounting.s", ["accounting"], own["accounting"])
        put("exec.map_s", ["exec.map"], self.total_s["exec.map"])
        capacity = counts["map.capacity_s"]
        put(
            "exec.parallel_eff", ["exec.map"],
            counts["map.child_cpu_s"] / capacity if capacity else 0.0,
        )
        stats = getattr(
            sys.modules.get(RUNNER_STATS_MODULE), RUNNER_STATS_NAME, None
        )
        for name in ("retries", "pool_fallbacks"):
            out[f"exec.{name}"] = getattr(stats, name, None)
        out["trace.coverage_frac"] = sum(own.values()) / run_s
        return out

    def _memo_hit_ratio(self) -> Optional[float]:
        stats_fn = getattr(sys.modules.get(MEMO_MODULE), MEMO_NAME, None)
        if stats_fn is None:
            return None
        stats = stats_fn()
        lookups = stats["hits"] + stats["misses"]
        return stats["hits"] / lookups if lookups else 0.0
