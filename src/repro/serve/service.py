"""``QueryService``: the concurrent serving tier over a built CovidKG.

Request path (every engine the web front end exposes):

1. the request is **normalized** (case/whitespace-folded, parameters
   sorted) into a cache key ``(engine, canonical params)``;
2. the **result cache** is claimed against the current data-version
   snapshot — a hit returns the stored page without touching the
   aggregation pipelines, a remembered deterministic failure replays
   immediately (negative cache), and a miss on a key already being
   computed *collapses* onto that in-flight computation (single-flight)
   instead of queueing duplicate work;
3. a leader miss is **admitted** to a bounded worker pool (shed with
   :class:`ServiceOverloadedError` when the queue is full, dropped with
   :class:`DeadlineExceededError` when its deadline lapses in queue);
4. execution runs under a reader lock (ingest takes the writer side);
5. counters and latency histograms record the outcome for
   :meth:`QueryService.stats`.

Invalidation needs no explicit flush: every mutation bumps a version
counter (``Collection``/``ShardedCollection`` on document writes, the
``KnowledgeGraph`` on fusion/node writes), and cached entries remember
the snapshot they were computed under.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    DeadlineExceededError,
    QueryError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.admission import ReadWriteLock, WorkerPool
from repro.serve.cache import Flight, ResultCache, request_key
from repro.serve.metrics import ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.system import CovidKG
    from repro.kg.enrichment import EnrichmentReport

#: Engines a request may target.
ENGINES = ("all_fields", "title_abstract", "table", "kg", "kg_query")


@dataclass
class GatewayConfig:
    """HTTP front-end knobs (see :mod:`repro.gateway`).

    Defined here (rather than in ``repro.gateway``) so ``ServeConfig``
    can carry one without the serve package importing the gateway — the
    dependency points gateway → serve only.
    """

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (read it back from ``Gateway.port``).
    port: int = 8080
    #: Connections past this cap are answered ``503`` + ``Retry-After``
    #: and closed.
    max_connections: int = 1024
    #: Pipelined requests a single connection may have outstanding; the
    #: reader stops consuming the socket (TCP backpressure) at the cap.
    max_inflight_per_connection: int = 8
    #: Request line + headers may not exceed this many bytes (400).
    max_header_bytes: int = 16384
    #: Request bodies past this are rejected with ``413``.
    max_body_bytes: int = 65536
    #: Keep-alive connections idle past this are closed.
    idle_timeout_seconds: float = 75.0
    #: Graceful drain: in-flight requests get this long to finish after
    #: shutdown is requested; stragglers are cancelled.
    drain_seconds: float = 5.0
    #: Emit one structured access-log line per request.
    access_log: bool = True


@dataclass
class ServeConfig:
    """Serving-tier knobs (sized for a laptop; scale up per host)."""

    num_workers: int = 4
    max_queue: int = 64
    negative_ttl_seconds: float = 30.0
    histogram_capacity: int = 2048
    #: HTTP front-end knobs consumed by :class:`repro.gateway.Gateway`
    #: when this service is exposed over the network.  ``None`` uses
    #: the gateway defaults; the in-process tier ignores it entirely.
    gateway: GatewayConfig | None = None
    #: ``host:port`` of a :class:`repro.cluster.SharedCacheServer` this
    #: replica should use as a cross-process L2 behind its in-process
    #: result cache.  ``None`` (the default) keeps the cache purely
    #: in-process.  The L2 is consulted only by leader misses, on
    #: worker threads, and every cache failure degrades to a miss —
    #: the shared tier can never take the replica down.
    shared_cache: str | None = None
    #: Socket timeout for shared-cache round trips.
    shared_cache_timeout: float = 2.0


@dataclass
class ServedResult:
    """A query answer plus serving metadata.

    ``collapsed`` marks a result obtained by waiting on another
    request's in-flight computation (single-flight follower) rather
    than from the cache or from this request's own execution.
    """

    engine: str
    value: Any
    cached: bool
    seconds: float
    versions: tuple[int, ...] = field(default_factory=tuple)
    collapsed: bool = False
    #: The answer came from the cluster's shared cross-process cache
    #: (an L2 hit published by another replica), not this process's L1
    #: and not a local computation.
    shared: bool = False
    #: An L1 hit's encoded page, if a previous hit left one on the cache
    #: entry (:meth:`QueryService.attach_wire`); never part of equality.
    wire: bytes | None = field(default=None, compare=False, repr=False)


class QueryService:
    """Concurrent, cached query serving over one :class:`CovidKG`.

    >>> from repro.api.system import CovidKG
    >>> from repro.corpus.generator import CorpusGenerator
    >>> system = CovidKG()
    >>> _ = system.ingest(CorpusGenerator().papers(8))
    >>> service = QueryService(system)
    >>> page = service.query("all_fields", query="covid")
    >>> page.engine, page.cached
    ('all_fields', False)
    >>> service.query("all_fields", query=" COVID ").cached  # normalized
    True
    >>> service.close()
    """

    def __init__(self, system: "CovidKG",
                 config: ServeConfig | None = None) -> None:
        self.system = system
        self.config = config or ServeConfig()
        self.cache = ResultCache(
            negative_ttl_seconds=self.config.negative_ttl_seconds,
        )
        self.metrics = ServiceMetrics(self.config.histogram_capacity)
        self.shared_cache: Any = None
        if self.config.shared_cache:
            # Imported lazily: the serving tier must not drag the
            # cluster package (and through it the gateway) into every
            # in-process deployment.
            from repro.cluster.cacheclient import (  # noqa: PLC0415
                SharedCacheClient,
            )

            self.shared_cache = SharedCacheClient(
                self.config.shared_cache,
                timeout=self.config.shared_cache_timeout,
            )
        self._pool = WorkerPool(
            num_workers=self.config.num_workers,
            max_queue=self.config.max_queue,
        )
        # Writes get their own single worker: an ingest queued on the
        # query pool could sit behind a pool's worth of readers while
        # holding nothing, then deadlock-by-queue when those readers
        # are themselves waiting for pool slots.  One writer thread
        # also serializes batches without holding the write lock in
        # the caller.
        self._ingest_pool = WorkerPool(num_workers=1, max_queue=8,
                                       name="ingest")
        self._data_lock = ReadWriteLock()
        self.ingest_engine: Any = None
        self._closed = False
        self._dispatch: dict[str, Callable[..., Any]] = {
            "all_fields": self._run_all_fields,
            "title_abstract": self._run_title_abstract,
            "table": self._run_table,
            "kg": self._run_kg,
            "kg_query": self._run_kg_query,
        }

    # -- public API -------------------------------------------------------

    def submit(self, engine: str, *,
               timeout_seconds: float | None = None,
               **params: Any) -> "Future[ServedResult]":
        """Admit one request; returns a future of :class:`ServedResult`.

        Cache hits (and remembered negative results) resolve immediately
        with no queueing; a miss on a key already being computed returns
        a future that collapses onto the in-flight computation.
        ``timeout_seconds`` becomes an absolute deadline: a request still
        queued when it passes fails with ``DeadlineExceededError``.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if engine not in self._dispatch:
            raise QueryError(
                f"unknown engine {engine!r}; one of {', '.join(ENGINES)}"
            )
        started = time.monotonic()
        self.metrics.record_request(engine)
        key = request_key(engine, params)
        versions = self._versions(engine)
        status, payload, wire = self.cache.claim(key, versions)
        if status == "hit":
            self.metrics.record_latency(engine,
                                        time.monotonic() - started)
            future: Future = Future()
            future.set_result(ServedResult(
                engine=engine, value=payload, cached=True,
                seconds=time.monotonic() - started, versions=versions,
                wire=wire,
            ))
            return future
        if status == "negative":
            self.metrics.record_negative_hit()
            future = Future()
            future.set_exception(payload)
            return future
        if status == "follower":
            self.metrics.record_collapsed()
            return self._follow(engine, payload, started, versions)
        return self._lead(engine, params, key, payload, started,
                          timeout_seconds, versions)

    def attach_wire(self, served: ServedResult, params: dict[str, Any],
                    wire: bytes) -> None:
        """Keep an L1 hit's encoded page on its cache entry.

        ``params`` are the ones the hit was submitted with.  The bytes
        belong to the entry: later hits carry them as
        ``ServedResult.wire`` until the entry is evicted, expires, is
        invalidated by a version bump or is replaced.
        """
        self.cache.attach_wire(request_key(served.engine, params),
                               served.value, wire)

    def _follow(self, engine: str, flight: Flight, started: float,
                versions: tuple[int, ...]) -> "Future[ServedResult]":
        """Wrap an in-flight leader computation as this request's future."""
        future: "Future[ServedResult]" = Future()

        def relay(inner: Future) -> None:
            exception = inner.exception()
            if exception is not None:
                future.set_exception(exception)
                return
            seconds = time.monotonic() - started
            self.metrics.record_latency(engine, seconds)
            future.set_result(ServedResult(
                engine=engine, value=inner.result(), cached=False,
                seconds=seconds, versions=versions, collapsed=True,
            ))

        flight.future.add_done_callback(relay)
        return future

    def _lead(self, engine: str, params: dict[str, Any], key: Any,
              flight: Flight, started: float,
              timeout_seconds: float | None,
              versions: tuple[int, ...]) -> "Future[ServedResult]":
        """Queue the leader's computation; settle the flight in all paths."""
        deadline = (None if timeout_seconds is None
                    else started + timeout_seconds)
        try:
            future = self._pool.submit(
                lambda: self._execute(engine, params, key, started, flight),
                deadline=deadline,
            )
        except ServiceOverloadedError as exc:
            # Shed before execution: wake followers so they don't hang.
            self.cache.fail(flight, exc)
            self.metrics.record_shed()
            raise

        def settle_if_dropped(outer: "Future[ServedResult]") -> None:
            # _execute settles the flight before the pool future
            # resolves, so an unsettled flight here means the task
            # never ran (deadline drop in queue, or shutdown cancel).
            if flight.future.done():
                return
            if outer.cancelled():
                self.cache.fail(flight, ServiceClosedError(
                    "service closed before execution"
                ))
                return
            exception = outer.exception()
            if exception is not None:
                self.cache.fail(flight, exception)

        future.add_done_callback(settle_if_dropped)
        future.add_done_callback(self._count_deadline_drop)
        return future

    def _count_deadline_drop(self, future: "Future[ServedResult]") -> None:
        if future.cancelled():
            return
        if isinstance(future.exception(), DeadlineExceededError):
            self.metrics.record_deadline_exceeded()

    def query(self, engine: str, *,
              timeout_seconds: float | None = None,
              **params: Any) -> ServedResult:
        """Synchronous convenience wrapper around :meth:`submit`.

        Deadlines are enforced by the worker pool (a queued request whose
        deadline lapses fails with ``DeadlineExceededError``), so this
        blocks until the pool resolves the future one way or the other.
        """
        return self.submit(engine, timeout_seconds=timeout_seconds,
                           **params).result()

    def ingest(self, papers: list[dict[str, Any]],
               skip_duplicates: bool = False) -> "EnrichmentReport":
        """Ingest under the writer lock; cached results self-invalidate.

        The underlying store/index/KG writes bump their version
        counters, so no cache flush is needed — subsequent lookups see a
        different snapshot and recompute.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        with self._data_lock.write_locked():
            report = self.system.ingest(papers,
                                        skip_duplicates=skip_duplicates)
        self.broadcast_versions()
        return report

    def attach_ingest(self, engine: Any) -> "QueryService":
        """Adopt an :class:`~repro.ingest.engine.IngestEngine`.

        The engine takes this service's reader/writer lock, so its
        batch commits exclude queries atomically and its background
        segment merges share the read side with them.
        :meth:`submit_ingest` then routes through the engine — WAL,
        quality gate, snapshots — instead of bare ``system.ingest``.
        """
        engine.use_lock(self._data_lock)
        self.ingest_engine = engine
        return self

    def submit_ingest(self, papers: list[Any], *,
                      skip_duplicates: bool = False,
                      timeout_seconds: float | None = None
                      ) -> "Future[ServedResult]":
        """Admit one ingest batch; returns a future of the receipt.

        Runs on the dedicated single-worker ingest pool — never the
        query pool — under the data write lock.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        started = time.monotonic()
        self.metrics.record_request("ingest")
        deadline = (None if timeout_seconds is None
                    else started + timeout_seconds)

        def run() -> ServedResult:
            try:
                value = self._run_ingest(papers, skip_duplicates)
            except Exception:
                self.metrics.record_error("ingest")
                raise
            seconds = time.monotonic() - started
            self.metrics.record_latency("ingest", seconds)
            return ServedResult(engine="ingest", value=value,
                                cached=False, seconds=seconds)

        try:
            return self._ingest_pool.submit(run, deadline=deadline)
        except ServiceOverloadedError:
            self.metrics.record_shed()
            raise

    def _run_ingest(self, papers: list[Any],
                    skip_duplicates: bool) -> dict[str, Any]:
        engine = self.ingest_engine
        if engine is not None:
            receipt = engine.commit_batch(
                papers, skip_duplicates=skip_duplicates)
            self.broadcast_versions()
            return receipt.to_json()
        with self._data_lock.write_locked():
            stored_before = len(self.system.store)
            report = self.system.ingest(papers,
                                        skip_duplicates=skip_duplicates)
            # What actually landed: a redelivered paper skipped under
            # skip_duplicates is not new (same rule as the engine path).
            accepted = len(self.system.store) - stored_before
        self.broadcast_versions()
        return {
            "accepted": accepted,
            "subtrees": report.subtrees,
            "versions": {"store": self.system.store.version,
                         "kg": self.system.graph.version},
        }

    def broadcast_versions(self) -> None:
        """Version-counter broadcast after an ingest commit/rollback.

        Announces every engine's current data-version snapshot to the
        cluster's shared cache, which eagerly purges entries stamped
        with a different snapshot.  Pure optimization: the shared
        cache's GET path re-checks version equality on every lookup, so
        correctness never depends on a broadcast arriving.
        """
        shared = self.shared_cache
        if shared is None:
            return
        for engine in ENGINES:
            shared.invalidate(engine, self._versions(engine))

    def health(self) -> dict[str, Any]:
        """The readiness payload ``/v1/healthz`` reports.

        Deliberately cheap (attribute reads and O(1) lock snapshots, no
        histograms) — the gateway answers it on the event loop, and the
        cluster router probes it every few hundred milliseconds.  The
        router uses ``versions`` to spot a replica serving stale data
        and ``ingest.replaying`` to keep a still-recovering replica out
        of the ring.
        """
        ingest: dict[str, Any] = {
            "attached": self.ingest_engine is not None,
            "pending": self._ingest_pool.pending,
        }
        if self.ingest_engine is not None:
            ingest.update(self.ingest_engine.replay_status())
        else:
            ingest.update({"replaying": False, "replayed_batches": 0})
        return {
            "versions": self.system.versions(),
            "ingest": ingest,
            "admission": {"pending": self._pool.pending},
        }

    def stats(self) -> dict[str, Any]:
        """Request, cache, and latency statistics for dashboards/CLI."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = {
            **self.cache.stats_snapshot(),
            "entries": len(self.cache),
            "max_entries": self.cache.max_entries,
            "ttl_seconds": self.cache.ttl_seconds,
            "negative_ttl_seconds": self.cache.negative_ttl_seconds,
            "inflight": self.cache.inflight,
            "shared": (self.shared_cache.stats_snapshot()
                       if self.shared_cache is not None
                       else {"enabled": False}),
        }
        snapshot["admission"] = {
            "workers": self._pool.num_workers,
            "max_queue": self._pool.max_queue,
            "pending": self._pool.pending,
        }
        snapshot["versions"] = {
            "store": self.system.store.version,
            "kg": self.system.graph.version,
        }
        snapshot["ingest"] = {
            "attached": self.ingest_engine is not None,
            "pending": self._ingest_pool.pending,
            **(self.ingest_engine.stats()
               if self.ingest_engine is not None else {}),
        }
        return snapshot

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait)
        self._ingest_pool.shutdown(wait=wait)
        if self.shared_cache is not None:
            self.shared_cache.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- execution --------------------------------------------------------

    def _versions(self, engine: str) -> tuple[int, ...]:
        """The data-version snapshot a result for ``engine`` depends on."""
        system = self.system
        if engine == "all_fields":
            return (system.all_fields.collection.version,)
        if engine == "title_abstract":
            return (system.title_abstract.collection.version,)
        if engine == "table":
            return (system.tables.collection.version,)
        # kg and kg_query read the graph.
        return (system.graph.version,)

    def _execute(self, engine: str, params: dict[str, Any],
                 key: Any, started: float, flight: Flight) -> ServedResult:
        runner = self._dispatch[engine]
        versions = flight.versions
        shared = self.shared_cache
        if shared is not None:
            # L2 lookup — on this worker thread, never on the event
            # loop, and never under the data lock (the versions
            # snapshot is read under a brief read-lock, the socket
            # round trip happens outside it).  A hit published by
            # another replica skips the whole pipeline; any cache
            # failure is a miss and the compute path below proceeds.
            with self._data_lock.read_locked():
                versions = self._versions(engine)
            hit, value = shared.get(engine, key, versions)
            if hit:
                self.cache.complete(flight, versions, value)
                seconds = time.monotonic() - started
                self.metrics.record_latency(engine, seconds)
                return ServedResult(
                    engine=engine, value=value, cached=True,
                    seconds=seconds, versions=versions, shared=True,
                )
        try:
            with self._data_lock.read_locked():
                versions = self._versions(engine)
                value = runner(**params)
        except Exception as exc:
            # A deterministic request error (bad query) is worth
            # remembering; transient failures must stay uncached.  The
            # negative is stamped with the versions read under the read
            # lock — the snapshot the failure was observed against —
            # not the possibly-stale claim-time snapshot.
            self.cache.fail(flight, exc,
                            negative=isinstance(exc, QueryError),
                            versions=versions)
            self.metrics.record_error(engine)
            raise
        self.cache.complete(flight, versions, value)
        if shared is not None:
            # Write-through: publish the freshly computed page so the
            # other replicas' leader misses become one-round-trip hits.
            shared.put(engine, key, versions, value)
        seconds = time.monotonic() - started
        self.metrics.record_latency(engine, seconds)
        return ServedResult(engine=engine, value=value, cached=False,
                            seconds=seconds, versions=versions)

    # -- engine adapters --------------------------------------------------

    def _run_all_fields(self, query: str, page: int = 1) -> Any:
        return self.system.all_fields.search(query, page=page)

    def _run_title_abstract(self, title: str | None = None,
                            abstract: str | None = None,
                            caption: str | None = None,
                            page: int = 1) -> Any:
        return self.system.title_abstract.search(
            title=title, abstract=abstract, caption=caption, page=page,
        )

    def _run_table(self, query: str, page: int = 1) -> Any:
        return self.system.tables.search(query, page=page)

    def _run_kg(self, query: str, top_k: int = 10) -> Any:
        return self.system.search_graph(query, top_k=top_k)

    def _run_kg_query(self, query: str, nl: bool = False) -> Any:
        return self.system.query_graph(query, nl=nl)
