"""E16 — parallel scatter-gather: serial vs. parallel shard fan-out.

The paper's sharded MongoDB back end scatter-gathers reads across
shards concurrently; PR 2 gives ``ShardedCollection`` the same shape
(shared executor fan-out + per-shard top-k merge).  This experiment
measures what that buys on the engines' ranked ``$match → $project →
$function → $sort → $limit`` pipeline over a sharded store at shards ∈
{1, 4, 8}, plus the single-flight stampede protection in the serving
tier.

Emits ``BENCH_e16_scatter_gather.json`` (machine-readable trajectory;
the CI bench-smoke job uploads it as an artifact).

Honesty note: the per-shard work is pure-Python matching/scoring, so
under the GIL thread fan-out buys concurrency, not CPU parallelism.  We
report measured ratios either way; the correctness claim (byte-identical
pages) is asserted unconditionally.  The search engines themselves no
longer shard in-process — cores are spent on replica processes
(EXPERIMENTS.md, "Trial: in-process search fan-out").
"""

import os
import threading
import time

import pytest
from benchlib import print_table

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.docstore.executor import WIDTH_ENV, shutdown_executor
from repro.docstore.functions import FunctionRegistry
from repro.docstore.sharding import ShardedCollection
from repro.search.all_fields import AllFieldsEngine
from repro.search.engine import PAGE_SIZE, PROJECTED_FIELDS, SORT_SPEC
from repro.search.indexing import ALL_SEARCH_FIELDS, build_search_document
from repro.search.query import match_filter, parse_query
from repro.serve.service import QueryService, ServeConfig

SHARD_COUNTS = (1, 4, 8)
QUERIES = ["vaccine side effects", "covid symptoms", "antibody dosage",
           "pfizer trial", "variant transmission"]
ROUNDS = int(os.environ.get("E16_ROUNDS", "3"))
NUM_PAPERS = int(os.environ.get("E16_PAPERS", "70"))

RESULTS = {
    "experiment": "e16_scatter_gather",
    "papers": NUM_PAPERS,
    "rounds": ROUNDS,
    "scatter_gather": [],
    "single_flight": {},
}


@pytest.fixture(scope="module")
def corpus():
    config = GeneratorConfig(seed=116, papers_per_week=15,
                             tables_per_paper=(0, 1))
    return CorpusGenerator(config).papers(NUM_PAPERS)


def _ranked_pipelines(corpus):
    """Each query's page-1 pipeline, scorers pre-registered."""
    engine = AllFieldsEngine()
    engine.add_papers(corpus)
    registry = FunctionRegistry()
    pipelines = []
    for number, query in enumerate(QUERIES):
        parsed = parse_query(query)
        registry.register(
            f"rank_{number}",
            engine.ranking.scorer(parsed, ALL_SEARCH_FIELDS),
        )
        pipelines.append([
            {"$match": match_filter(parsed, ALL_SEARCH_FIELDS)},
            {"$project": {name: 1 for name in PROJECTED_FIELDS}},
            {"$function": {"name": f"rank_{number}", "as": "score"}},
            {"$sort": SORT_SPEC},
            {"$limit": PAGE_SIZE},
        ])
    return registry, pipelines


def _build(corpus, num_shards):
    store = ShardedCollection("publications", shard_key="paper_id",
                              num_shards=num_shards)
    store.insert_many([build_search_document(p) for p in corpus])
    return store


def _drive(store, registry, pipelines):
    """Cold ranked-aggregation throughput over the query mix."""
    started = time.perf_counter()
    for _ in range(ROUNDS):
        for pipeline in pipelines:
            store.aggregate(pipeline, registry)
    seconds = time.perf_counter() - started
    total = ROUNDS * len(pipelines)
    return total / seconds, seconds


def _page_ids(store, registry, pipeline):
    return [(doc["paper_id"], doc["score"])
            for doc in store.aggregate(pipeline, registry).documents]


def test_e16_serial_vs_parallel_shard_fanout(corpus, monkeypatch):
    rows = []
    registry, pipelines = _ranked_pipelines(corpus)
    reference_page = None
    for num_shards in SHARD_COUNTS:
        store = _build(corpus, num_shards)

        monkeypatch.setenv(WIDTH_ENV, "1")
        shutdown_executor()
        serial_rps, serial_seconds = _drive(store, registry, pipelines)
        serial_page = _page_ids(store, registry, pipelines[0])

        monkeypatch.delenv(WIDTH_ENV, raising=False)
        shutdown_executor()
        parallel_rps, parallel_seconds = _drive(store, registry, pipelines)
        parallel_page = _page_ids(store, registry, pipelines[0])

        # Correctness before speed: identical pages either way, and at
        # every shard count.
        assert parallel_page == serial_page
        reference_page = reference_page or serial_page
        assert serial_page == reference_page
        ratio = parallel_rps / serial_rps
        rows.append([num_shards, serial_rps, parallel_rps, ratio])
        RESULTS["scatter_gather"].append({
            "shards": num_shards,
            "serial_rps": serial_rps,
            "serial_seconds": serial_seconds,
            "parallel_rps": parallel_rps,
            "parallel_seconds": parallel_seconds,
            "speedup": ratio,
        })
    shutdown_executor()

    print_table(
        "E16: ranked aggregation, serial vs parallel scatter-gather",
        ["shards", "serial req/s", "parallel req/s", "speedup"],
        rows,
        note="pure-Python shard work holds the GIL, so the ratio reflects "
             "fan-out overhead rather than core scaling",
    )
    # Sanity floor only: the parallel path must not collapse throughput.
    for _, serial_rps, parallel_rps, ratio in rows:
        assert ratio > 0.1


def test_e16_preflight_validation_overhead(corpus):
    """Pre-flight validation is noise next to a sharded scatter-gather.

    ``ShardedCollection.aggregate(..., validate=True)`` checks the
    pipeline once on the router before fanning out; the check must stay
    <1% of the aggregation wall time or "fail fast" quietly becomes
    "run slow".
    """
    from repro.analysis.pipeline_check import validate_pipeline

    collection = ShardedCollection("papers", shard_key="paper_id",
                                   num_shards=4)
    collection.insert_many([build_search_document(p) for p in corpus])
    registry = FunctionRegistry()
    registry.register(
        "rank",
        lambda doc: len(doc.get("search", {}).get("body", "")),
    )
    pipeline = [
        {"$match": {"search.body": {"$regex": "vaccine"}}},
        {"$function": {"name": "rank", "as": "score"}},
        {"$sort": {"score": -1}},
        {"$limit": 10},
    ]

    def best(fn, repeats):
        fastest = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            fastest = min(fastest, time.perf_counter() - started)
        return fastest

    validate_s = best(lambda: validate_pipeline(pipeline, registry), 20)
    execute_s = best(
        lambda: collection.aggregate(pipeline, registry, validate=False),
        5,
    )
    checked = collection.aggregate(pipeline, registry, validate=True)
    unchecked = collection.aggregate(pipeline, registry, validate=False)
    assert checked.documents == unchecked.documents

    fraction = validate_s / execute_s
    print_table(
        "E16: pre-flight validation vs sharded aggregation",
        ["validate us", "sharded aggregate ms", "overhead"],
        [[f"{validate_s * 1e6:.1f}", f"{execute_s * 1e3:.2f}",
          f"{fraction * 100:.3f}%"]],
        note="router validates once, before any shard fan-out",
    )
    RESULTS["preflight_validation"] = {
        "validate_seconds": validate_s,
        "aggregate_seconds": execute_s,
        "overhead_fraction": fraction,
    }
    assert fraction < 0.01
    shutdown_executor()


def test_e16_single_flight_stampede(corpus):
    """N concurrent identical misses -> exactly one computation."""
    hammer = 16
    system = CovidKG(CovidKGConfig(num_shards=2))
    system.ingest(corpus[:30])
    computations = []
    release = threading.Event()
    entered = threading.Event()

    with QueryService(system, ServeConfig(num_workers=4)) as service:
        real = service._dispatch["all_fields"]

        def slow(query, page=1):
            computations.append(query)
            entered.set()
            assert release.wait(timeout=30)
            return real(query=query, page=page)

        service._dispatch["all_fields"] = slow
        started = time.perf_counter()
        futures = [service.submit("all_fields", query="stampede probe")
                   for _ in range(hammer)]
        assert entered.wait(timeout=10)
        release.set()
        for future in futures:
            future.result(timeout=30)
        seconds = time.perf_counter() - started
        stats = service.stats()

    print_table(
        "E16: single-flight stampede protection",
        ["concurrent misses", "computations", "collapsed", "seconds"],
        [[hammer, len(computations), stats["collapsed_misses"], seconds]],
        note="every request saw the leader's result; no duplicate work",
    )
    RESULTS["single_flight"] = {
        "concurrent_misses": hammer,
        "computations": len(computations),
        "collapsed": stats["collapsed_misses"],
        "seconds": seconds,
    }
    assert len(computations) == 1
    assert stats["collapsed_misses"] == hammer - 1
