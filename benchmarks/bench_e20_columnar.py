"""E20 — columnar ranking kernels: batch numpy vs per-document Python.

PR 7 moves eligible search queries off the scalar ``$function`` closure
onto contiguous posting arrays (:mod:`repro.search.columnar`):
``$match`` becomes a binary search over a sorted atom dictionary,
TF-IDF/BM25 scoring becomes a handful of vectorized gathers, and top-k
becomes one ``lexsort``.  This experiment measures what that buys:

* kernel vs scalar throughput on one core (the ISSUE's >= 3x target,
  asserted at >= 10k documents — warm kernel searches are typically
  two orders of magnitude faster);
* TF-IDF vs BM25 kernel throughput (the selectable ranker must not
  price differently).

Correctness is asserted before any speed claim: every measured
configuration must return byte-identical result pages.

Reduced CI shape: ``E20_PAPERS=300 E20_ROUNDS=2``.
"""

import os
import time

import pytest
from benchlib import print_table

from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.search.all_fields import AllFieldsEngine

QUERIES = ["vaccine side effects", "covid symptoms", "antibody dosage",
           "pfizer trial", "variant transmission"]
ROUNDS = int(os.environ.get("E20_ROUNDS", "3"))
NUM_PAPERS = int(os.environ.get("E20_PAPERS", "10000"))

#: The ISSUE's single-core speedup floor, asserted at this corpus size.
SPEEDUP_TARGET = 3.0
SPEEDUP_AT_PAPERS = 10_000

RESULTS = {
    "experiment": "e20_columnar",
    "papers": NUM_PAPERS,
    "rounds": ROUNDS,
}


@pytest.fixture(scope="module")
def corpus():
    config = GeneratorConfig(seed=120, papers_per_week=200,
                             tables_per_paper=(0, 1))
    return CorpusGenerator(config).papers(NUM_PAPERS)


def _build(corpus, **kwargs):
    engine = AllFieldsEngine(**kwargs)
    engine.add_papers(corpus)
    return engine


def _drive(engine):
    """Warm ranked-search throughput over the query mix."""
    engine.search(QUERIES[0], page=1)  # build/refresh the index once
    started = time.perf_counter()
    for _ in range(ROUNDS):
        for query in QUERIES:
            engine.search(query, page=1)
    seconds = time.perf_counter() - started
    return (ROUNDS * len(QUERIES)) / seconds, seconds


def _pages(engine):
    return [
        [(hit.paper_id, hit.score)
         for hit in engine.search(query, page=1).results]
        for query in QUERIES
    ]


def test_e20_kernel_vs_scalar_single_core(corpus):
    """The headline: batch kernels vs the per-document closure."""
    engine = _build(corpus)

    kernel_rps, kernel_seconds = _drive(engine)
    kernel_pages = _pages(engine)
    assert any(
        "columnar" in stats.stage
        for stats in engine.search(QUERIES[0]).stage_stats
    )

    engine.use_columnar = False
    scalar_rps, scalar_seconds = _drive(engine)
    scalar_pages = _pages(engine)
    engine.use_columnar = True

    assert kernel_pages == scalar_pages
    speedup = kernel_rps / scalar_rps
    print_table(
        "E20: single-core ranked search, columnar kernel vs scalar",
        ["papers", "scalar req/s", "kernel req/s", "speedup"],
        [[NUM_PAPERS, scalar_rps, kernel_rps, speedup]],
        note=f"pages byte-identical; >= {SPEEDUP_TARGET:.0f}x asserted "
             f"at >= {SPEEDUP_AT_PAPERS} papers",
    )
    RESULTS["kernel_vs_scalar"] = {
        "scalar_rps": scalar_rps,
        "scalar_seconds": scalar_seconds,
        "kernel_rps": kernel_rps,
        "kernel_seconds": kernel_seconds,
        "speedup": speedup,
    }
    if NUM_PAPERS >= SPEEDUP_AT_PAPERS:
        assert speedup >= SPEEDUP_TARGET
    else:
        # Reduced shapes must still never regress past the scalar path.
        assert speedup > 1.0


def test_e20_tfidf_vs_bm25_throughput(corpus):
    """The selectable ranker: both run as kernels at the same price."""
    rows = []
    for ranker in ("tfidf", "bm25"):
        engine = _build(corpus, ranker=ranker)
        rps, seconds = _drive(engine)
        stages = [stats.stage
                  for stats in engine.search(QUERIES[0]).stage_stats]
        assert f"$columnar({ranker})" in stages, stages
        rows.append([ranker, rps])
        RESULTS.setdefault("rankers", {})[ranker] = {
            "rps": rps, "seconds": seconds,
        }

    print_table(
        "E20: kernel throughput by ranking function",
        ["ranker", "req/s"],
        rows,
        note="both rankers batch the same gathers; BM25 adds one "
             "length-normalization term",
    )
    tfidf_rps = RESULTS["rankers"]["tfidf"]["rps"]
    bm25_rps = RESULTS["rankers"]["bm25"]["rps"]
    # Same kernel shape: neither ranker may cost a multiple of the other.
    assert 0.2 < bm25_rps / tfidf_rps < 5.0
