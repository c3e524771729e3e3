"""E3 — Section 2.1: aggregation pipeline stage ordering.

Paper claim: "It was mindful to use the $match stage first to minimize
the amount of data being passed through all the latter stages, thus
significantly increasing performance and response time to the user", and
the $project stage "significantly improve[s] our systems performance" by
dropping unneeded fields early.

Regenerates: wall-clock and per-stage document flow for three pipeline
layouts over growing corpora — (a) $match first (the paper's design),
(b) $match after the expensive $function stage, (c) $match first but no
$project pruning.  Shape to reproduce: (a) fastest; (b) pays the ranking
function on every document; (c) between the two.
"""

import time

from benchlib import print_table

from repro.docstore.aggregation import aggregate
from repro.docstore.collection import Collection
from repro.docstore.functions import FunctionRegistry
from repro.search.indexing import build_search_document


def _collection(corpus, size):
    collection = Collection(f"papers{size}")
    for paper in corpus[:size]:
        collection.insert_one(build_search_document(paper))
    return collection


def _registry():
    registry = FunctionRegistry()

    def rank(document):
        # A deliberately non-trivial per-document ranking function.
        text = document.get("search", {}).get("body", "")
        return sum(1 for token in text.split() if "a" in token)

    registry.register("rank", rank)
    return registry


MATCH = {"search.title": {"$regex": r"\bvaccin", "$options": "i"}}
PROJECT = {"paper_id": 1, "search": 1, "static_rank": 1}


def _match_first(collection, registry):
    return aggregate(collection, [
        {"$match": MATCH},
        {"$project": PROJECT},
        {"$function": {"name": "rank", "as": "score"}},
        {"$sort": {"score": -1}},
        {"$limit": 10},
    ], registry)


def _match_late(collection, registry):
    return aggregate(collection, [
        {"$project": PROJECT},
        {"$function": {"name": "rank", "as": "score"}},
        {"$match": MATCH},
        {"$sort": {"score": -1}},
        {"$limit": 10},
    ], registry)


def _no_project(collection, registry):
    return aggregate(collection, [
        {"$match": MATCH},
        {"$function": {"name": "rank", "as": "score"}},
        {"$sort": {"score": -1}},
        {"$limit": 10},
    ], registry)


def _timed(fn, collection, registry, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(collection, registry)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_e3_stage_ordering(medium_corpus, benchmark):
    registry = _registry()
    rows = []
    for size in (100, 300):
        collection = _collection(medium_corpus, size)
        first_s, first = _timed(_match_first, collection, registry)
        late_s, late = _timed(_match_late, collection, registry)
        nop_s, _ = _timed(_no_project, collection, registry)
        ranked_first = next(
            s.docs_in for s in first.stages if s.stage == "$function"
        )
        ranked_late = next(
            s.docs_in for s in late.stages if s.stage == "$function"
        )
        rows.append([size, f"{first_s * 1000:.2f}", f"{late_s * 1000:.2f}",
                     f"{nop_s * 1000:.2f}", ranked_first, ranked_late])
        assert sorted(d.get("paper_id") for d in first.documents) == \
            sorted(d.get("paper_id") for d in late.documents)
        # The paper's claim: match-first is faster than match-late.
        assert first_s < late_s
    print_table(
        "E3: $match-first vs $match-late (paper: match first "
        "'significantly increases performance')",
        ["docs", "match-first ms", "match-late ms", "no-$project ms",
         "ranked(first)", "ranked(late)"],
        rows,
        note="match-late pays the $function ranking on EVERY document",
    )

    collection = _collection(medium_corpus, 300)
    benchmark(lambda: _match_first(collection, registry))


def test_e3_match_pushdown_uses_index(medium_corpus, benchmark):
    """A leading $match can also use collection indexes (pushdown)."""
    collection = Collection("indexed")
    for paper in medium_corpus[:200]:
        collection.insert_one({"paper_id": paper["paper_id"],
                               "journal": paper["journal"]})
    collection.create_index("journal")
    target = medium_corpus[0]["journal"]

    collection.scan_count = 0
    result = aggregate(collection, [
        {"$match": {"journal": target}},
        {"$count": "n"},
    ])
    scanned_indexed = collection.scan_count
    matched = result.documents[0]["n"]

    print_table(
        "E3b: $match pushdown onto a secondary index",
        ["strategy", "docs scanned", "docs matched"],
        [["indexed pushdown", scanned_indexed, matched],
         ["full scan", 200, matched]],
    )
    assert scanned_indexed < 200

    benchmark(lambda: aggregate(collection, [
        {"$match": {"journal": target}}, {"$count": "n"},
    ]))
