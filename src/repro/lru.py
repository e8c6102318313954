"""One bounded, thread-safe LRU map behind every memo of the engine.

The trichotomy is a data-complexity result: the language is fixed, so
everything derived from it alone (minimal DFA, trC decision, Ψtr
expression) is compiled once and reused, and so is everything derived
from the graph alone.  Every such memo is an :class:`LruCache`: the
engine's plan cache and result cache, ``/classify``'s plan cache, the
reachability index's closure tables and frontier filters, and the
walk-certificate accounts of :mod:`repro.engine.vectorized`.  Each
cache holds one lock, keeps its entries in recency order, evicts the
least recently used past its capacity, and counts its hits, misses,
inserts and evictions; :meth:`LruCache.stats` reads them as one
:class:`CacheStats`.

Values are never ``None``: a lookup reads ``None`` as a miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass(frozen=True)
class CacheStats:
    """The counters of one :class:`LruCache`, or of several summed.

    ``hits`` and ``misses`` count lookups, ``inserts`` the keys stored
    for the first time (a plan cache's compiles) and ``evictions`` the
    entries dropped for room; ``size`` and ``capacity`` describe the
    cache when the counters were read.
    """

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def enabled(self) -> bool:
        """False for a zero-capacity cache, which stores nothing."""
        return self.capacity > 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def since(self, earlier: CacheStats) -> CacheStats:
        """The counts made after ``earlier`` was read; ``size`` and
        ``capacity`` as they are now."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            inserts=self.inserts - earlier.inserts,
            evictions=self.evictions - earlier.evictions,
            size=self.size,
            capacity=self.capacity,
        )

    def __add__(self, other: object) -> CacheStats:
        """Two caches' stats summed (a pooled batch sums its workers'):
        counts and sizes add, and the larger capacity is kept."""
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            inserts=self.inserts + other.inserts,
            evictions=self.evictions + other.evictions,
            size=self.size + other.size,
            capacity=max(self.capacity, other.capacity),
        )


class LruCache(Generic[K, V]):
    """At most ``capacity`` entries, least recently used evicted first.

    A zero-capacity cache stores nothing and counts nothing: ``get``
    misses, ``put`` drops the value and ``get_or_build`` builds it
    every time.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(
                "cache capacity must be >= 0, got %r" % (capacity,)
            )
        self.capacity = capacity
        self._entries: OrderedDict[K, V] = OrderedDict()
        #: Keys being built by :meth:`get_or_build`, each with the
        #: event its waiters wait on.
        self._inflight: dict[K, threading.Event] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._inserts = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: K) -> V | None:
        """The value under ``key``, now the most recently used, or None."""
        if not self.capacity:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        """Store ``value`` under ``key`` as the most recently used."""
        if not self.capacity:
            return
        with self._lock:
            self._store(key, value)

    # invariant: holds-lock
    def _store(self, key: K, value: V) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            self._inserts += 1
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def get_or_build(
        self, key: K, build: Callable[[K], V]
    ) -> tuple[V, bool]:
        """``(value, hit)``: the value under ``key``, or ``build(key)``,
        stored.

        Single-flight: one caller builds a missing key, and callers
        that ask for it meanwhile wait, then look again.  The first
        lookup that finds nothing counts the one miss; a look that
        finds the value, first or after waiting, is a hit.  A build
        that raises stores nothing and raises in its own caller; a
        waiter then builds for itself, and raises its own error if
        that build fails too.
        """
        if not self.capacity:
            return build(key), False
        missed = False
        while True:
            with self._lock:
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return value, True
                if not missed:
                    self._misses += 1
                    missed = True
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = threading.Event()
                    break
            flight.wait()
        try:
            built = build(key)
        except BaseException:
            with self._lock:
                del self._inflight[key]
            flight.set()
            raise
        with self._lock:
            self._store(key, built)
            del self._inflight[key]
        flight.set()
        return built, False

    def stats(self) -> CacheStats:
        """The counters, read together under the lock."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                inserts=self._inserts,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )
