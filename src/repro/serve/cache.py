"""Normalized-request result cache: LRU + TTL + version invalidation.

The serving tier caches fully-computed query results keyed on
``(engine, canonical query, page)``.  Five mechanisms keep entries
correct and bounded:

* **Canonicalization** — ``"  Vaccine   SIDE effects "`` and
  ``"vaccine side effects"`` hit the same entry, so repeated interactive
  queries share work regardless of spacing/case.
* **Version invalidation** — every entry records the data-version
  snapshot (docstore + KG counters) it was computed against; a lookup
  whose current snapshot differs is a miss and evicts the stale entry.
* **LRU + TTL** — at most ``max_entries`` live at once (least recently
  used evicted first) and nothing older than ``ttl_seconds`` is served.
* **Single-flight miss collapsing** — the stampede protection: N
  concurrent misses on one key produce *one* computation.  The first
  miss becomes the **leader** and computes; the other N-1 become
  **followers** that block on the leader's in-flight future instead of
  recomputing (:meth:`ResultCache.claim` / :meth:`ResultCache.complete`
  / :meth:`ResultCache.fail`).
* **Negative caching** — a deterministic request failure (e.g. a
  malformed query) is remembered for a *short* TTL
  (``negative_ttl_seconds``) and replayed on repeat lookups, so a
  hammered bad request cannot recompute its way around the cache.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Hashable


#: Cache key: (engine name, canonical parameter tuple).
CacheKey = tuple[str, tuple[Any, ...]]

#: Data-version snapshot the cached value was computed against.
VersionSnapshot = tuple[int, ...]


def canonical_text(text: str) -> str:
    """Lower-case and collapse runs of whitespace: the query normal form."""
    return " ".join(text.split()).lower()


def canonical_params(params: dict[str, Any]) -> tuple[Any, ...]:
    """A hashable, order-insensitive normal form of request parameters.

    String values are canonicalized as query text; ``None`` values (an
    unused search field) are dropped so ``title="x"`` and
    ``title="x", abstract=None`` share an entry.
    """
    items = []
    for name in sorted(params):
        value = params[name]
        if value is None:
            continue
        if isinstance(value, str):
            value = canonical_text(value)
        items.append((name, value))
    return tuple(items)


def request_key(engine: str, params: dict[str, Any]) -> CacheKey:
    """The cache key for one normalized request."""
    return (engine, canonical_params(params))


@dataclass
class CacheStats:
    """Counters the metrics layer folds into ``QueryService.stats()``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    expirations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "expirations": self.expirations,
        }


@dataclass
class _Entry:
    value: Any
    versions: VersionSnapshot
    expires_at: float
    #: The value's encoded form, attached by whoever serves hits over a
    #: wire (:meth:`ResultCache.attach_wire`).  It lives and dies with
    #: the entry, so every way an entry goes — LRU, TTL, version
    #: invalidation, ``put`` replacement — drops the bytes too.
    wire: bytes | None = None


@dataclass
class _NegativeEntry:
    exception: BaseException
    versions: VersionSnapshot
    expires_at: float


class Flight:
    """One in-flight computation other requests for the key collapse on.

    The leader resolves ``future`` with the raw computed value (or its
    exception); followers block on it.  The flight object, not the key,
    identifies the computation — a flight superseded by a version change
    completes harmlessly without clobbering its successor.
    """

    __slots__ = ("key", "versions", "future")

    def __init__(self, key: CacheKey, versions: VersionSnapshot) -> None:
        self.key = key
        self.versions = versions
        self.future: Future = Future()


class ResultCache:
    """Thread-safe LRU + TTL cache with data-version invalidation."""

    def __init__(self, max_entries: int = 512,
                 ttl_seconds: float = 300.0,
                 negative_ttl_seconds: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self.negative_ttl_seconds = negative_ttl_seconds
        self._clock = clock
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._negatives: OrderedDict[Hashable, _NegativeEntry] = \
            OrderedDict()
        self._inflight: dict[Hashable, Flight] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def stats_snapshot(self) -> dict[str, int]:
        """A consistent copy of the counters, taken under the lock.

        ``self.stats`` is mutated under ``self._lock``; readers must not
        fold the live object into a response while writers are mid-update.
        """
        with self._lock:
            return self.stats.as_dict()

    def put(self, key: CacheKey, versions: VersionSnapshot,
            value: Any) -> None:
        now = self._clock()
        with self._lock:
            # A successful computation supersedes any remembered
            # failure for the key, whatever snapshot it was cached
            # under — never let both answers coexist.
            self._negatives.pop(key, None)
            self._entries[key] = _Entry(
                value=value, versions=versions,
                expires_at=now + self.ttl_seconds,
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    # -- single-flight ----------------------------------------------------

    def claim(self, key: CacheKey, versions: VersionSnapshot
              ) -> tuple[str, Any, bytes | None]:
        """Resolve a lookup into one of four outcomes, atomically.

        * ``("hit", value, wire)`` — a fresh positive entry exists;
          ``wire`` is its attached encoded form (:meth:`attach_wire`),
          or ``None``;
        * ``("negative", exception, None)`` — a fresh negative entry
          exists: replay the remembered failure without recomputing;
        * ``("follower", flight, None)`` — the same key+versions is
          already being computed: wait on ``flight.future`` instead of
          working;
        * ``("leader", flight, None)`` — this caller must compute, then
          call :meth:`complete` or :meth:`fail` on the returned flight.

        The one lookup path, so it is also the one invalidation point:
        an entry — positive or negative — computed against other
        versions (a document fix, a ``touch()``, a rollback) or past its
        TTL is dropped here and the lookup falls through.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry.versions != versions:
                    del self._entries[key]
                    self.stats.invalidations += 1
                elif now >= entry.expires_at:
                    del self._entries[key]
                    self.stats.expirations += 1
                else:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return "hit", entry.value, entry.wire
            negative = self._negatives.get(key)
            if negative is not None:
                if negative.versions == versions and \
                        now < negative.expires_at:
                    return "negative", negative.exception, None
                del self._negatives[key]
            flight = self._inflight.get(key)
            if flight is not None and flight.versions == versions:
                return "follower", flight, None
            flight = Flight(key, versions)
            self._inflight[key] = flight
            self.stats.misses += 1
            return "leader", flight, None

    def attach_wire(self, key: CacheKey, value: Any, wire: bytes) -> None:
        """Remember ``value``'s encoded form on the entry that holds it.

        Called after a hit, never at miss time, so entries nobody asks
        for twice carry no bytes.  A no-op unless ``key`` still maps to
        the very object that was encoded: an entry replaced or dropped
        since the hit must not inherit another value's bytes.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.value is value:
                entry.wire = wire

    def complete(self, flight: Flight, versions: VersionSnapshot,
                 value: Any) -> None:
        """Leader success: publish to the cache and wake the followers."""
        self.put(flight.key, versions, value)
        with self._lock:
            if self._inflight.get(flight.key) is flight:
                del self._inflight[flight.key]
        flight.future.set_result(value)

    def fail(self, flight: Flight, exception: BaseException,
             negative: bool = False,
             versions: VersionSnapshot | None = None) -> None:
        """Leader failure: wake followers; optionally cache the failure.

        ``negative`` marks deterministic request errors — they are
        replayed for ``negative_ttl_seconds`` so repeated bad requests
        cost nothing.  Transient errors (overload, shard flaps) must
        pass ``negative=False`` so the next request recomputes.

        ``versions`` is the snapshot the failure was actually *observed*
        under (read inside the execution lock).  Defaults to the
        claim-time ``flight.versions`` — but an ingest can land between
        claim and execution, and a negative stamped with the stale
        claim-time snapshot would be dropped as outdated on the next
        lookup, defeating the cache exactly when the failure is still
        current.
        """
        if negative:
            now = self._clock()
            with self._lock:
                self._negatives[flight.key] = _NegativeEntry(
                    exception=exception,
                    versions=(versions if versions is not None
                              else flight.versions),
                    expires_at=now + self.negative_ttl_seconds,
                )
                self._negatives.move_to_end(flight.key)
                while len(self._negatives) > self.max_entries:
                    self._negatives.popitem(last=False)
        with self._lock:
            if self._inflight.get(flight.key) is flight:
                del self._inflight[flight.key]
        flight.future.set_exception(exception)

    @property
    def inflight(self) -> int:
        """Number of computations currently in flight (for stats)."""
        with self._lock:
            return len(self._inflight)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._negatives.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries
