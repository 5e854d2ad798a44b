"""The one bounded cache: a thread-safe LRU with exact statistics.

Every probe cache and memo in the system is an :class:`LRUCache`: the
batch run's probe cache, suggestion memo and chase-transcript memo, the
entry service's probe cache and suggestion memo, and the stream
processor's suggestion memo. Each holds deterministic values (a cached
answer is a function of its key), so a cache can change only speed,
never output. One lock guards the entries and the hit, miss and
eviction counters, so the counts stay exact under any threading.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable

_MISS = object()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters for one cache (or an aggregate)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """A bounded, thread-safe LRU mapping of hashable keys to values.

    ``get`` counts a hit or a miss; ``peek`` counts neither. Both mark a
    found entry most-recent. A ``put`` past ``maxsize`` evicts the
    least-recent entry and counts one eviction.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = self._evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The cached value without touching the counters."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                return default
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry; the counters keep their totals."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> list[tuple[Hashable, Any]]:
        """The current entries, oldest first (a consistent copy)."""
        with self._lock:
            return list(self._entries.items())

    def preload(self, entries: Iterable[tuple[Hashable, Any]]) -> int:
        """Seed the cache from a snapshot; returns the resident count.

        Overflow past ``maxsize`` drops the oldest entries without
        counting as evictions: nothing was displaced at runtime.
        """
        with self._lock:
            for key, value in entries:
                self._entries[key] = value
                self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses, evictions=self._evictions)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"LRUCache({len(self)}/{self.maxsize} entries, {self.stats})"
