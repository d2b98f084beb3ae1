"""Process-wide executable cache: the cuDNN-style plan store.

cuDNN resolves a convolution descriptor to an execution plan through a
heuristic cache keyed on the descriptor, not the data pointers; this module
is that layer for the reproduction.  A bounded LRU maps
:class:`~repro.runtime.signature.ConvSignature` to its compiled
:class:`~repro.runtime.executable.ConvExecutable`; hits skip planning,
transform-matrix derivation and gather-descriptor layout entirely.  Hit/miss/eviction totals are exported both as a
:class:`CacheStats` snapshot and as ``runtime.cache.*`` obs counters so the
profiler CLIs can show plan-cache behaviour next to kernel timings.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..obs import counter_add
from .executable import ConvExecutable
from .signature import ConvSignature

__all__ = [
    "CacheStats",
    "ExecutableCache",
    "cache_stats",
    "clear_cache",
    "get_executable",
    "global_cache",
]

#: Default number of compiled signatures kept resident.  A whole-network
#: training run compiles one per distinct conv signature, forward and
#: flipped-filter backward (VGG16 at 32x32: 13); 128 holds several networks
#: at once while bounding plan memory.
DEFAULT_CAPACITY = 128


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of cache behaviour since the last ``clear``."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ExecutableCache:
    """Thread-safe bounded LRU of compiled conv executables."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[ConvSignature, ConvExecutable] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def _evict_over_capacity(self) -> None:
        """Evict LRU entries past the bound.  Caller must hold the lock."""
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1
            counter_add("runtime.cache.evictions")

    def get(self, sig: ConvSignature) -> ConvExecutable:
        """Return the executable for ``sig``, compiling it on first use."""
        with self._lock:
            exe = self._entries.get(sig)
            if exe is not None:
                self._entries.move_to_end(sig)
                self._hits += 1
                counter_add("runtime.cache.hits")
                return exe
        # Compile outside the lock: construction is the expensive part and
        # signatures are immutable, so a racing duplicate build is harmless
        # (last writer wins, both executables are equivalent).
        exe = ConvExecutable(sig)
        with self._lock:
            self._misses += 1
            counter_add("runtime.cache.misses")
            self._entries[sig] = exe
            self._entries.move_to_end(sig)
            self._evict_over_capacity()
        return exe

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
            )

    def executables(self) -> list[ConvExecutable]:
        """Snapshot of the cached executables (LRU → MRU order)."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_GLOBAL = ExecutableCache()


def global_cache() -> ExecutableCache:
    """The process-wide executable cache."""
    return _GLOBAL


def get_executable(sig: ConvSignature) -> ConvExecutable:
    """Resolve ``sig`` through the process-wide cache."""
    return _GLOBAL.get(sig)


def cache_stats() -> CacheStats:
    """Snapshot of the process-wide cache's behaviour."""
    return _GLOBAL.stats()


def clear_cache() -> None:
    """Drop every compiled executable and reset the stats counters."""
    _GLOBAL.clear()
