"""The on-disk, content-addressed result cache.

Every heavy experiment in the reproduction is a pure function of its
inputs, so its result can be stored under a fingerprint of those inputs
and reused verbatim: regenerating Fig. 3(a) after Fig. 2 (the identical
``daytrader4`` run), re-running a benchmark session at the same scale,
or re-plotting a consolidation sweep all become near-instant cache hits.

Layout: ``<root>/<first 2 hex chars>/<16 hex chars>.pkl`` — one pickle
per result, written atomically (temp file + ``os.replace``) so a killed
run can never leave a half-written entry that a later run would trust.
The fingerprint always includes :func:`code_version`, so bumping the
package version (or the cache schema) invalidates every old entry
without any migration logic.  ``REPRO_CACHE_DIR`` overrides the root
(default ``.repro-cache`` under the working directory), ``REPRO_CACHE=0``
disables caching entirely, and ``repro cache --wipe`` empties it.

The cache also keeps a small in-memory memo of deserialized values so a
session that asks for the same result many times (the benchmark
harness, figure pairs) pays the unpickling cost once.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.exec.fingerprint import fingerprint_hex

#: Environment variable overriding the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Set to ``0`` to disable result caching entirely.
ENV_CACHE_ENABLED = "REPRO_CACHE"

#: Default cache directory (relative to the working directory).
DEFAULT_DIR_NAME = ".repro-cache"

#: Bump to invalidate every cached result on a storage-format change.
CACHE_SCHEMA = 1


def code_version() -> str:
    """The code-version component baked into every cache key.

    Any released change that could alter experiment results must bump
    ``repro.__version__`` (or :data:`CACHE_SCHEMA`), which silently
    turns every stale entry into a miss.
    """
    # Imported lazily: repro/__init__ imports this package.
    from repro import __version__

    return f"{__version__}+schema{CACHE_SCHEMA}"


@dataclass
class CacheStats:
    """Lookup counters for one cache instance (this process only)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def render(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.evictions} evictions "
            f"(hit rate {self.hit_rate:.0%})"
        )


class ResultCache:
    """Content-addressed persistence for experiment results.

    Keys are fingerprints of *inputs* (via :mod:`repro.exec.fingerprint`,
    always salted with :func:`code_version`); values are arbitrary
    picklable results.  The cache is bounded: beyond ``max_entries`` the
    oldest entries (by file mtime) are evicted.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_entries: int = 256,
        version: Optional[str] = None,
        enabled: Optional[bool] = None,
        memo_entries: int = 8,
    ) -> None:
        if enabled is None:
            enabled = os.environ.get(ENV_CACHE_ENABLED, "1") != "0"
        self.enabled = enabled
        self.root = Path(
            root
            if root is not None
            else os.environ.get(ENV_CACHE_DIR) or DEFAULT_DIR_NAME
        )
        self.version = version if version is not None else code_version()
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._memo: "OrderedDict[str, Any]" = OrderedDict()
        self._memo_entries = memo_entries

    # -- keys and paths -------------------------------------------------

    def key(self, *parts: Any) -> str:
        """The cache key (hex fingerprint) of the given input parts."""
        return fingerprint_hex(self.version, *parts)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- lookups --------------------------------------------------------

    def get(self, key: str) -> Tuple[Any, bool]:
        """Look up a key; returns ``(value, hit)``.

        A corrupt or truncated entry (killed writer, disk damage) is
        removed and reported as a miss — never propagated.
        """
        if not self.enabled:
            self.stats.misses += 1
            return None, False
        if key in self._memo:
            self._memo.move_to_end(key)
            self.stats.hits += 1
            return self._memo[key], True
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None, False
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None, False
        self._memoize(key, value)
        self.stats.hits += 1
        return value, True

    def put(self, key: str, value: Any) -> None:
        """Store a value under a key, atomically."""
        if not self.enabled:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._memoize(key, value)
        self.stats.stores += 1
        self._evict()

    def _memoize(self, key: str, value: Any) -> None:
        self._memo[key] = value
        self._memo.move_to_end(key)
        while len(self._memo) > self._memo_entries:
            self._memo.popitem(last=False)

    # -- maintenance ----------------------------------------------------

    def entries(self) -> List[Path]:
        """All entry files currently on disk (any version)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.pkl"))

    def entry_count(self) -> int:
        return len(self.entries())

    def total_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def wipe(self) -> int:
        """Delete every cached result; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.root.is_dir():
            for sub in self.root.iterdir():
                if sub.is_dir():
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
        self._memo.clear()
        return removed

    def _evict(self) -> None:
        """Drop the oldest entries beyond ``max_entries`` (LRU by mtime)."""
        entries = self.entries()
        if len(entries) <= self.max_entries:
            return
        def mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0
        entries.sort(key=lambda path: (mtime(path), path.name))
        for path in entries[: len(entries) - self.max_entries]:
            try:
                path.unlink()
                self.stats.evictions += 1
            except OSError:
                pass

    def describe(self) -> str:
        """A human-readable summary (the ``repro cache`` output)."""
        state = "enabled" if self.enabled else "DISABLED"
        mib = self.total_bytes() / (1024 * 1024)
        return "\n".join(
            [
                f"result cache at {self.root} ({state})",
                f"  version salt : {self.version}",
                f"  entries      : {self.entry_count()} "
                f"({mib:.1f} MiB, cap {self.max_entries})",
                f"  this process : {self.stats.render()}",
            ]
        )

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={str(self.root)!r}, "
            f"enabled={self.enabled}, version={self.version!r})"
        )


_default_cache: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    """The process-wide cache (lazily built from the environment)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = ResultCache()
    return _default_cache


def set_default_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Replace the process-wide cache; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def reset_default_cache() -> None:
    """Forget the process-wide cache (it is rebuilt from the environment
    on next use — test fixtures use this after changing the env)."""
    set_default_cache(None)
