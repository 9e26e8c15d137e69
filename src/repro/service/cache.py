"""Engine/result cache: never simulate the same what-if twice.

Campaign loops routinely re-ask identical questions — a retried round, two
scenarios sharing a baseline window, a dashboard re-rendering yesterday's
campaign. Each simulated window costs seconds here and *days* of production
observation in the paper's setting, so results are memoized under the
request's ``(tenant, config hash, workload tag)`` key. Keys are complete:
two requests with equal keys are guaranteed (by construction in
:meth:`~repro.service.pool.SimulationRequest.cache_key`) to simulate
identically, so a hit is always safe to reuse.

The cache is bounded by a **memory budget**, ``max_bytes``
(:data:`DEFAULT_CACHE_BYTES` unless set). An entry costs its outcome's
pickled size, measured once when it is stored: that counts every outcome
kind, including flight, rollout and impact outcomes that carry no frame.
Least-recently-used entries are evicted until the held total fits — a
lookup hit refreshes an entry's recency, so hot baselines survive while
one-off what-ifs age out. The entry just stored is never evicted, so an
outcome larger than the whole budget is held alone.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.metrics import OPS_METRICS
from repro.service.pool import SimulationOutcome, SimulationRequest
from repro.utils.errors import ServiceError

__all__ = ["DEFAULT_CACHE_BYTES", "CacheStats", "SimulationCache"]

#: Default memory budget of a :class:`SimulationCache`: 256 MiB of pickled
#: outcomes.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Hit/miss/eviction counters of a :class:`SimulationCache`."""

    hits: int
    misses: int
    size: int
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def delta(self, since: "CacheStats") -> "CacheStats":
        """This snapshot's counters minus an earlier one's (``size`` stays
        absolute — it is a level, not a counter)."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            size=self.size,
            evictions=self.evictions - since.evictions,
        )


class SimulationCache:
    """In-memory LRU memo of simulation outcomes, keyed by request identity
    and bounded by the pickled bytes it holds."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES):
        if max_bytes < 1:
            raise ServiceError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        # Each entry is (outcome, its pickled size in bytes).
        self._store: OrderedDict[
            tuple[str, str, str], tuple[SimulationOutcome, int]
        ] = OrderedDict()
        # One cache serves every shard thread of a sharded front-end, so
        # lookups/stores, the LRU reordering and the byte total are serialized.
        self._lock = threading.Lock()
        self._nbytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._beat_mark = self.stats

    @property
    def nbytes(self) -> int:
        """Pickled bytes of the outcomes held now."""
        return self._nbytes

    def lookup(self, request: SimulationRequest) -> SimulationOutcome | None:
        """The cached outcome for ``request``, or None (counts hit/miss).

        A hit marks the entry most-recently-used, protecting it from
        eviction ahead of colder entries.
        """
        key = request.cache_key()
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
                self._store.move_to_end(key)
        if entry is None:
            OPS_METRICS.counter("cache.misses").inc()
            return None
        OPS_METRICS.counter("cache.hits").inc()
        return entry[0]

    def store(self, request: SimulationRequest, outcome: SimulationOutcome) -> None:
        """Memoize ``outcome`` under ``request``'s key, evicting LRU entries
        until the held bytes fit ``max_bytes`` (never this entry)."""
        key = request.cache_key()
        cost = len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
        evicted = 0
        with self._lock:
            replaced = self._store.pop(key, None)
            if replaced is not None:
                self._nbytes -= replaced[1]
            self._store[key] = (outcome, cost)
            self._nbytes += cost
            while self._nbytes > self.max_bytes and len(self._store) > 1:
                _, (_, freed) = self._store.popitem(last=False)
                self._nbytes -= freed
                evicted += 1
            self._evictions += evicted
            size, nbytes = len(self._store), self._nbytes
        if evicted:
            OPS_METRICS.counter("cache.evictions").inc(evicted)
        OPS_METRICS.gauge("cache.size").set(size)
        OPS_METRICS.gauge("cache.bytes").set(nbytes)

    @property
    def stats(self) -> CacheStats:
        """Current counters as an immutable snapshot."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            size=len(self._store),
            evictions=self._evictions,
        )

    def delta_snapshot(self) -> CacheStats:
        """Counters accrued since the previous ``delta_snapshot`` call.

        The per-beat readout the tuning service logs: each call advances the
        beat mark, so consecutive calls partition the cumulative counters
        into disjoint per-beat deltas (``size`` stays absolute).
        """
        with self._lock:
            now = self.stats
            delta = now.delta(self._beat_mark)
            self._beat_mark = now
        return delta

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._store.clear()
            self._nbytes = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._beat_mark = self.stats

    def __len__(self) -> int:
        return len(self._store)
