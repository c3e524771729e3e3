"""E16 — sharded scatter-gather: the ranked pipeline by shard count.

The paper's sharded MongoDB back end scatter-gathers reads across
shards; ``ShardedCollection`` keeps that shape (per-shard ``$match``
pushdown + per-shard top-k heaps + one bounded merge).  This experiment
runs the engines' ranked ``$match → $project → $function → $sort →
$limit`` pipeline over a sharded store at shards ∈ {1, 4, 8} against a
single unsharded ``Collection``, plus the single-flight stampede
protection in the serving tier.

Emits ``BENCH_e16_scatter_gather.json`` (machine-readable trajectory;
the CI bench-smoke job uploads it as an artifact).

The shards are visited in a plain loop on the calling thread: the
per-shard work is pure-Python matching/scoring under the GIL, and a
thread pool over it was faster in no measured cell (EXPERIMENTS.md,
"Trial: the docstore thread pool").  Cores are spent on replica
processes.  The correctness claim (identical pages at every shard
count) is asserted unconditionally.
"""

import os
import threading
import time

import pytest
from benchlib import print_table

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.docstore.aggregation import AggregationPipeline
from repro.docstore.collection import Collection
from repro.docstore.sharding import ShardedCollection
from repro.search.all_fields import AllFieldsEngine
from repro.search.columnar import MatchPlan
from repro.search.engine import PAGE_SIZE, PROJECTED_FIELDS, SORT_SPEC
from repro.search.indexing import ALL_SEARCH_FIELDS, build_search_document
from repro.search.query import parse_query
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
    """Each query's page-1 pipeline, its scorer inline."""
    engine = AllFieldsEngine()
    engine.add_papers(corpus)
    pipelines = []
    for query in QUERIES:
        parsed = parse_query(query)
        pipelines.append([
            {"$match": MatchPlan.terms_over_fields(
                parsed, ALL_SEARCH_FIELDS).match_document()},
            {"$project": {name: 1 for name in PROJECTED_FIELDS}},
            {"$function": {
                "body": engine.ranking.scorer(parsed, ALL_SEARCH_FIELDS),
                "as": "score"}},
            {"$sort": SORT_SPEC},
            {"$limit": PAGE_SIZE},
        ])
    return pipelines


def _build(corpus, num_shards):
    store = ShardedCollection("publications", shard_key="paper_id",
                              num_shards=num_shards)
    store.insert_many([build_search_document(p) for p in corpus])
    return store


def _aggregate(store, pipeline):
    if isinstance(store, ShardedCollection):
        return store.aggregate(pipeline)
    return AggregationPipeline(pipeline).run(store)


def _drive(store, pipelines):
    """Cold ranked-aggregation throughput over the query mix."""
    started = time.perf_counter()
    for _ in range(ROUNDS):
        for pipeline in pipelines:
            _aggregate(store, pipeline)
    seconds = time.perf_counter() - started
    total = ROUNDS * len(pipelines)
    return total / seconds, seconds


def _page_ids(store, pipeline):
    return [(doc["paper_id"], doc["score"])
            for doc in _aggregate(store, pipeline).documents]


def test_e16_ranked_aggregation_by_shard_count(corpus):
    pipelines = _ranked_pipelines(corpus)
    single = Collection("publications")
    single.insert_many([build_search_document(p) for p in corpus])

    def measure(store):
        rps, seconds = _drive(store, pipelines)
        pages = [_page_ids(store, pipeline)
                 for pipeline in pipelines]
        return rps, seconds, pages

    single_rps, single_seconds, reference_pages = measure(single)
    RESULTS["single_collection"] = {"rps": single_rps,
                                    "seconds": single_seconds}
    rows = [["single Collection", single_rps]]
    for num_shards in SHARD_COUNTS:
        rps, seconds, pages = measure(_build(corpus, num_shards))
        # Correctness before speed: the unsharded collection's pages,
        # at every shard count.
        assert pages == reference_pages
        rows.append([num_shards, rps])
        RESULTS["scatter_gather"].append({
            "shards": num_shards,
            "rps": rps,
            "seconds": seconds,
        })

    print_table(
        "E16: ranked aggregation by store shard count",
        ["shards", "req/s"],
        rows,
        note="shards are visited in a loop on the calling thread; pages "
             "identical everywhere",
    )


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
