"""The traced run: per-layer numbers and the per-workload latency budget.

Three parts, all timed from here around calls into each layer's public
functions (layer = ``src/repro`` package name):

* a **replay** of the workload's requests one client at a time through the
  nested entry points -- routed, direct to the replica, in-process
  ``QueryService.query`` with a ``SharedCacheClient`` to the live cache
  server, and underneath it ``engine.search``, parse, rank, fetch, the
  scalar pipeline, KG search and KGQL;
* **fixed probes** of layers a replay cannot isolate (shared-cache round
  trips, ingest engine stages, index build/extend, docstore point
  operations, KGQL parse/plan, build/save/load);
* the **budget**: routed mean = router + gateway + serve + search +
  docstore + kg + cluster cache client + unaccounted.  It uses means, not
  medians, because only means add up across layers.

End-to-end numbers never come from here; they come from the untraced run.
"""

from __future__ import annotations

import json
import pickle
import shutil
import statistics
import time
from typing import Any, Callable

import repro.ingest.engine
import repro.search.all_fields
import repro.search.engine
import repro.search.table_search
import repro.search.title_abstract
from repro.api.persistence import load_system, save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.cluster.cacheclient import SharedCacheClient
from repro.docstore.sharding import ShardedCollection
from repro.gateway.client import GatewayClient
from repro.gateway.http import parse_request_head
from repro.gateway.routes import resolve, serialize_served
from repro.ingest.engine import IngestEngine
from repro.ingest.quality_gate import gate_batch
from repro.kgql import parse, plan_query, translate
from repro.search import columnar
from repro.search.indexing import ALL_SEARCH_FIELDS
from repro.serve.service import QueryService, ServeConfig

import harness
from harness import metric
from loadgen import percentile, send
from oracle import engine_call
from spans import Tracer
from workloads import Corpus, Request, Workload, ingest_batches

#: Requests replayed per path; a phrase query costs ~100 kernel queries.
REPLAY = {"hot_read": 200, "cold_search": 200, "phrase_search": 20,
          "mixed_ingest": 200}
PROBE_REPEATS = 30
INGEST_PROBE_BATCHES = 5
FANOUT_PROBE_BATCHES = 3


def _p50(seconds: list[float], scale: float) -> float:
    return percentile(sorted(seconds), 0.5) * scale


def _mean(seconds: list[float]) -> float:
    return statistics.fmean(seconds) if seconds else 0.0


def _timed(call: Callable[[], Any]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def _replay_sets(workload: Workload, count: int
                 ) -> tuple[list[Request], list[Request]]:
    """Requests for the routed replay and for the in-process replay.

    The two never share a key, or whichever ran first would leave the
    other's page in the shared cache and turn its misses into hits.  A
    distinct-key workload gives two slices from the *end* of its order (the
    measured window consumed the front); a repeating workload deals its
    keys alternately to the two sides and keeps each side's repetitions.
    """
    if workload.distinct:
        tail = [workload.pool[index] for index in workload.order[-2 * count:]]
        return tail[:count], tail[count:]
    side_of: dict[int, int] = {}
    sides: tuple[list[Request], list[Request]] = ([], [])
    for index in workload.order:
        side = sides[side_of.setdefault(index, len(side_of) % 2)]
        if len(side) < count:
            side.append(workload.pool[index])
    return sides


# -- replay ------------------------------------------------------------------

def _replay_routed(tracer: Tracer, cluster: harness.Cluster,
                   requests: list[Request]) -> None:
    """natural -> direct to the replica that answered (now an L1 hit) ->
    routed again (a routed L1 hit): the two hits isolate the router."""
    router = GatewayClient(cluster.host, cluster.router_port)
    replicas = {record["replica_id"]: GatewayClient(record["host"],
                                                    record["port"])
                for record in cluster.replicas}
    try:
        for number, request in enumerate(requests):
            tracer.request = f"routed-{number}"
            with tracer.span("route.natural"):
                response = send(router, request)
            replica = replicas[response.headers["x-replica"]]
            with tracer.span("route.direct_hit"):
                send(replica, request)
            with tracer.span("route.routed_hit"):
                send(router, request)
    finally:
        router.close()
        for client in replicas.values():
            client.close()


def _wrap_layers(tracer: Tracer, service: Any) -> None:

    system = service.system
    tracer.wrap(service.shared_cache, "get", "cluster.shared_get")
    tracer.wrap(service.shared_cache, "put", "cluster.shared_put")
    for engine in (system.all_fields, system.title_abstract, system.tables):
        tracer.wrap(engine, "search", "search.engine")
    for module in (repro.search.all_fields, repro.search.title_abstract,
                   repro.search.table_search):
        tracer.wrap(module, "parse_query", "search.parse")
    tracer.wrap(columnar, "build_query_spec", "search.parse")
    tracer.wrap(columnar.ColumnarIndex, "rank", "search.rank")
    tracer.wrap(columnar.ColumnarIndex, "fetch", "search.fetch")
    tracer.wrap(repro.search.engine, "aggregate", "docstore.pipeline")
    tracer.wrap(system, "search_graph", "kg.search")
    tracer.wrap(system, "query_graph", "kgql.execute")


def _replay_in_process(tracer: Tracer, service: Any,
                       requests: list[Request], warm: bool
                       ) -> dict[str, Any]:
    """The same request path a replica runs, minus sockets and event loop.

    ``warm`` first runs the requests untraced, for a workload whose window
    left every key in the replicas' L1.
    """
    observed = {"response_bytes": [], "matched": 0, "returned": 0,
                "docs_into_function": []}
    if warm:
        for request in requests:
            engine, kwargs = engine_call(request)
            service.query(engine, **kwargs)
    _wrap_layers(tracer, service)
    try:
        for number, request in enumerate(requests):
            tracer.request = f"inproc-{number}"
            head = (f"{request.method} {request.target} HTTP/1.1\r\n"
                    "Host: bench\r\n\r\n").encode()
            with tracer.span("request"):
                with tracer.span("gateway.parse"):
                    parsed = parse_request_head(head)
                    endpoint = resolve(parsed.path)
                    kwargs = endpoint.params(parsed)
                with tracer.span("serve.query") as query_span:
                    served = service.query(endpoint.engine, **kwargs)
                query_span["cached"] = served.cached
                with tracer.span("gateway.serialize"):
                    body = json.dumps(
                        serialize_served(served, "bench-000001"),
                        default=str, separators=(",", ":")).encode()
            observed["response_bytes"].append(len(body))
            value = served.value
            if not served.cached and hasattr(value, "stage_stats"):
                observed["matched"] += value.total_matches
                observed["returned"] += len(value.results)
                observed["docs_into_function"].extend(
                    stat.docs_in for stat in value.stage_stats
                    if stat.stage == "$function")
            with tracer.span("serve.hit"):
                again = service.query(endpoint.engine, **kwargs)
            if not again.cached:
                raise RuntimeError(
                    f"second in-process {request.target} was not a hit")
    finally:
        tracer.unwrap_all()
    return observed


def _replay_metrics(tracer: Tracer, observed: dict[str, Any]
                    ) -> dict[str, dict[str, Any]]:
    rows = [row for _, row in tracer.per_request("request")]
    computed = [row for row in rows if row["search.engine"] > 0]
    miss_rows = [row for span, row in tracer.per_request("serve.query")
                 if not span["cached"]]
    direct_hit = _p50(tracer.durations("route.direct_hit"), 1e3)
    routed_hit = _p50(tracer.durations("route.routed_hit"), 1e3)
    hit_us = _p50(tracer.durations("serve.hit"), 1e6)
    serialize_us = _p50(tracer.durations("gateway.serialize"), 1e6)
    metrics = {
        "cluster.router_self_ms": metric(routed_hit - direct_hit, "ms"),
        "gateway.self_ms": metric(
            direct_hit - (hit_us + serialize_us) / 1e3, "ms"),
        "gateway.parse_us": metric(
            _p50(tracer.durations("gateway.parse"), 1e6), "us"),
        "gateway.serialize_us": metric(serialize_us, "us"),
        "gateway.response_bytes": metric(
            _mean(observed["response_bytes"]), "bytes"),
        "serve.hit_us": metric(hit_us, "us"),
        "serve.miss_overhead_us": metric(
            _p50([row["self:serve.query"] for row in miss_rows], 1e6), "us"),
        "search.parse_us": metric(
            _p50([row["search.parse"] for row in computed], 1e6), "us"),
        "search.rank_ms": metric(
            _p50([row["search.rank"] for row in computed
                  if row["search.rank"] > 0], 1e3), "ms"),
        "search.fetch_ms": metric(
            _p50([row["search.fetch"] for row in computed
                  if row["search.fetch"] > 0], 1e3), "ms"),
        "search.snippet_ms": metric(
            _p50([row["self:search.engine"] for row in computed], 1e3),
            "ms"),
        "search.engine_ms": metric(
            _p50([row["search.engine"] for row in computed], 1e3), "ms"),
        "search.rows_matched_per_result": metric(
            observed["matched"] / max(1, observed["returned"]), "ratio"),
        "docstore.pipeline_ms": metric(
            _p50([row["docstore.pipeline"] for row in computed
                  if row["docstore.pipeline"] > 0], 1e3), "ms"),
        "docstore.docs_into_function": metric(
            _mean(observed["docs_into_function"]), "count"),
    }
    metrics.update(_budget(tracer, rows))
    return metrics


def _budget(tracer: Tracer, rows: list[dict[str, float]]
            ) -> dict[str, dict[str, Any]]:
    """Mean milliseconds per routed request, by layer."""
    def mean_of(key: str) -> float:
        return _mean([row[key] for row in rows]) * 1e3

    routed = _mean(tracer.durations("route.natural")) * 1e3
    direct_hit = _mean(tracer.durations("route.direct_hit")) * 1e3
    routed_hit = _mean(tracer.durations("route.routed_hit")) * 1e3
    hit = _mean(tracer.durations("serve.hit")) * 1e3
    cache_client = mean_of("cluster.shared_get") + mean_of(
        "cluster.shared_put")
    layers = {
        # Router forward + the shared-cache round trips a miss makes.
        "cluster": routed_hit - direct_hit + cache_client,
        # Socket, event loop, parse, serialize: a direct hit minus the
        # in-process hit it wraps.
        "gateway": direct_hit - hit,
        "serve": mean_of("self:serve.query"),
        "search": mean_of("search.engine") - mean_of("docstore.pipeline"),
        "docstore": mean_of("docstore.pipeline"),
        "kg": mean_of("kg.search") + mean_of("kgql.execute"),
    }
    budget = {f"budget.{layer}_ms": metric(value, "ms")
              for layer, value in layers.items()}
    budget["budget.routed_mean_ms"] = metric(routed, "ms")
    budget["budget.routed_p50_ms"] = metric(
        _p50(tracer.durations("route.natural"), 1e3), "ms")
    budget["budget.unaccounted_ms"] = metric(
        routed - sum(layers.values()), "ms")
    return budget


# -- fixed probes ------------------------------------------------------------

def _probe_shared_cache(cluster: harness.Cluster, system: Any
                        ) -> dict[str, dict[str, Any]]:
    """get-miss and put of a real page: what every cold request pays."""
    page = system.all_fields.search("vaccine")
    gets, puts = [], []
    with SharedCacheClient(cluster.cache_address) as client:
        for number in range(PROBE_REPEATS):
            key = ("bench_e2e", number)
            gets.append(_timed(lambda: client.get("bench", key, (0,))))
            puts.append(_timed(lambda: client.put("bench", key, (0,), page)))
    return {
        "cluster.shared_get_ms": metric(_p50(gets, 1e3), "ms"),
        "cluster.shared_put_ms": metric(_p50(puts, 1e3), "ms"),
        "cluster.shared_value_bytes": metric(len(pickle.dumps(
            page, protocol=pickle.HIGHEST_PROTOCOL)), "bytes"),
    }


def _probe_ingest_fanout(cluster: harness.Cluster, seed: int
                         ) -> dict[str, dict[str, Any]]:
    """Routed write-all ack minus one replica's own ack.  Runs last: the
    direct writes leave that replica ahead of the others."""
    batches = ingest_batches(seed, 2 * FANOUT_PROBE_BATCHES,
                             first_number=100_000)
    record = cluster.replicas[0]
    with GatewayClient(cluster.host, cluster.router_port) as router, \
            GatewayClient(record["host"], record["port"]) as replica:
        routed = [_timed(lambda: _expect_ok(send(router, batch.request())))
                  for batch in batches[:FANOUT_PROBE_BATCHES]]
        direct = [_timed(lambda: _expect_ok(send(replica, batch.request())))
                  for batch in batches[FANOUT_PROBE_BATCHES:]]
    return {"cluster.ingest_fanout_self_ms": metric(
        _p50(routed, 1e3) - _p50(direct, 1e3), "ms")}


def _expect_ok(response: Any) -> None:
    if response.status != 200:
        raise RuntimeError(f"ingest probe got HTTP {response.status}: "
                           f"{response.body[:200]!r}")


def _probe_api(corpus: Corpus) -> dict[str, dict[str, Any]]:

    directory = harness.TMP_DIR / "api-probe"
    system = CovidKG(CovidKGConfig(num_shards=harness.STORE_SHARDS))
    build = _timed(lambda: system.ingest(corpus.papers))
    save = _timed(lambda: save_system(system, directory))
    saved_bytes = sum(path.stat().st_size
                      for path in directory.rglob("*") if path.is_file())
    load = _timed(lambda: load_system(directory))
    shutil.rmtree(directory, ignore_errors=True)
    return {
        "api.build_papers_per_s": metric(len(corpus) / build, "1/s"),
        "api.save_s": metric(save, "s"),
        "api.load_s": metric(load, "s"),
        "api.saved_bytes_per_paper": metric(
            saved_bytes / len(corpus), "bytes"),
    }


def _probe_kg(system: Any, corpus: Corpus) -> dict[str, dict[str, Any]]:

    entities = corpus.entities[:20]
    questions = [f"side effects of {entity}" for entity in entities]
    queries = [translate(question).kgql for question in questions]
    return {
        "kgql.nl_translate_us": metric(_p50(
            [_timed(lambda: translate(q)) for q in questions], 1e6), "us"),
        "kgql.parse_plan_us": metric(_p50(
            [_timed(lambda: plan_query(parse(q))) for q in queries], 1e6),
            "us"),
        "kgql.execute_ms": metric(_p50(
            [_timed(lambda: system.query_graph(q)) for q in queries], 1e3),
            "ms"),
        "kg.search_ms": metric(_p50(
            [_timed(lambda: system.search_graph(e)) for e in entities],
            1e3), "ms"),
    }


def _probe_docstore(system: Any, corpus: Corpus, seed: int
                    ) -> dict[str, dict[str, Any]]:

    finds = [_timed(lambda: system.store.find_one(
        {"paper_id": paper["paper_id"]})) for paper in corpus.papers]
    scratch = ShardedCollection("bench", shard_key="paper_id",
                                num_shards=harness.STORE_SHARDS)
    inserts = [_timed(lambda: scratch.insert_many(batch.papers))
               / len(batch.papers)
               for batch in ingest_batches(seed, PROBE_REPEATS,
                                           first_number=200_000)]
    return {
        "docstore.find_by_id_us": metric(_p50(finds, 1e6), "us"),
        "docstore.insert_us": metric(_p50(inserts, 1e6), "us"),
    }


def _search_each_engine(system: Any) -> None:
    system.all_fields.search("vaccine")
    system.title_abstract.search(title="vaccine")
    system.tables.search("vaccine")


def _probe_ingest(system: Any, seed: int) -> dict[str, dict[str, Any]]:
    """IngestEngine stages on a scratch directory, 4-paper batches; also
    index build, delta extend and merge, which the commits set up."""
    engines = (system.all_fields, system.title_abstract, system.tables)

    def stamp(engine: Any) -> Any:
        return columnar.stamp_for(engine.collection,
                                  engine.tfidf.num_documents)

    indexes: list[Any] = []
    builds = [_timed(lambda: indexes.append(columnar.build_index(
        engine.collection, ALL_SEARCH_FIELDS, stamp(engine))))
        for engine in engines]
    # Each engine's own index must exist for commits to leave deltas.
    _search_each_engine(system)

    directory = harness.TMP_DIR / "ingest-probe"
    batches = ingest_batches(seed, INGEST_PROBE_BATCHES,
                             first_number=300_000)
    gates = [_timed(lambda: gate_batch(batch.papers)) for batch in batches]
    user_bytes = sum(len(json.dumps(paper, sort_keys=True,
                                    separators=(",", ":")).encode())
                     for batch in batches for paper in batch.papers)
    extends: list[float] = []
    tracer = Tracer()
    ingest = IngestEngine(system, directory)
    try:
        for method in ("begin_batch", "append_document", "commit_batch"):
            tracer.wrap(ingest.wal, method, "ingest.wal")
        tracer.wrap(system, "ingest", "ingest.apply")
        tracer.wrap(repro.ingest.engine, "take_snapshot", "ingest.snapshot")
        for number, batch in enumerate(batches):
            tracer.request = f"ingest-{number}"
            with tracer.span("ingest.commit_batch"):
                ingest.commit_batch(batch.papers)
            if not extends:  # the delta of exactly one 4-paper batch
                extends = [_timed(lambda: index.extend(engine.collection,
                                                       stamp(engine)))
                           for engine, index in zip(engines, indexes)]
        tracer.unwrap_all()
        _search_each_engine(system)  # the engines' own deltas, to merge
        merge = _timed(ingest.merge_now)
        wal_bytes = sum(path.stat().st_size
                        for path in (directory / "wal").glob("*"))
    finally:
        tracer.unwrap_all()
        ingest.close()
        shutil.rmtree(directory, ignore_errors=True)
    rows = [row for _, row in tracer.per_request("ingest.commit_batch")]
    return {
        "search.index_build_s": metric(_mean(builds), "s"),
        "search.index_extend_ms": metric(_p50(extends, 1e3), "ms"),
        "ingest.gate_us": metric(_p50(gates, 1e6), "us"),
        "ingest.wal_commit_ms": metric(
            _p50([row["ingest.wal"] for row in rows], 1e3), "ms"),
        "ingest.apply_ms": metric(
            _p50([row["ingest.apply"] for row in rows], 1e3), "ms"),
        "ingest.snapshot_ms": metric(
            _p50([row["ingest.snapshot"] for row in rows], 1e3), "ms"),
        "ingest.commit_batch_ms": metric(
            _p50([row["ingest.commit_batch"] for row in rows], 1e3), "ms"),
        "ingest.merge_ms": metric(merge * 1e3, "ms"),
        "ingest.wal_bytes_per_user_byte": metric(
            wal_bytes / user_bytes, "ratio"),
    }


# -- entry point -------------------------------------------------------------

def measure(cluster: harness.Cluster, system: Any, corpus: Corpus,
            workload: Workload, seed: int, smoke: bool
            ) -> dict[str, dict[str, Any]]:
    """Every traced per-layer metric for ``workload``.

    ``system`` is the reference system the oracle has finished with; the
    probes mutate it.
    """
    count = 10 if smoke else REPLAY[workload.name]
    routed_requests, local_requests = _replay_sets(workload, count)
    tracer = Tracer()
    _replay_routed(tracer, cluster, routed_requests)
    service = QueryService(system, ServeConfig(
        num_workers=harness.WORKERS, shared_cache=cluster.cache_address))
    try:
        observed = _replay_in_process(
            tracer, service, local_requests,
            warm=not workload.distinct and not workload.ingest)
    finally:
        service.close()
    metrics = _replay_metrics(tracer, observed)
    harness.write_json(harness.OUT_DIR / f"trace-{workload.name}.json",
                       tracer.spans)
    metrics.update(_probe_shared_cache(cluster, system))
    metrics.update(_probe_kg(system, corpus))
    metrics.update(_probe_docstore(system, corpus, seed))
    metrics.update(_probe_api(corpus))
    metrics.update(_probe_ingest(system, seed))
    metrics.update(_probe_ingest_fanout(cluster, seed))
    return metrics
