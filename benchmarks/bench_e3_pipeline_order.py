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
function on every document; (c) between the two.  E3c counts the rows a
quoted phrase's $match examines with and without the ``paper_id``
``$in`` conjunct the search engines put in front of it (the columnar
atom dictionaries' candidates): the regex runs on those rows only.
"""

import time

from benchlib import print_table

from repro.docstore.aggregation import aggregate
from repro.docstore.collection import Collection
from repro.search.all_fields import AllFieldsEngine
from repro.search.columnar import MatchPlan
from repro.search.indexing import ALL_SEARCH_FIELDS, build_search_document
from repro.search.query import parse_query


def _collection(corpus, size):
    collection = Collection(f"papers{size}")
    for paper in corpus[:size]:
        collection.insert_one(build_search_document(paper))
    return collection


def _rank(document):
    # A deliberately non-trivial per-document ranking function.
    text = document.get("search", {}).get("body", "")
    return sum(1 for token in text.split() if "a" in token)


RANK = {"$function": {"body": _rank, "as": "score"}}
MATCH = {"search.title": {"$regex": r"\bvaccin", "$options": "i"}}
PROJECT = {"paper_id": 1, "search": 1, "static_rank": 1}


def _match_first(collection):
    return aggregate(collection, [
        {"$match": MATCH},
        {"$project": PROJECT},
        RANK,
        {"$sort": {"score": -1}},
        {"$limit": 10},
    ])


def _match_late(collection):
    return aggregate(collection, [
        {"$project": PROJECT},
        RANK,
        {"$match": MATCH},
        {"$sort": {"score": -1}},
        {"$limit": 10},
    ])


def _no_project(collection):
    return aggregate(collection, [
        {"$match": MATCH},
        RANK,
        {"$sort": {"score": -1}},
        {"$limit": 10},
    ])


def _timed(fn, collection, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(collection)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_e3_stage_ordering(medium_corpus, benchmark):
    rows = []
    for size in (100, 300):
        collection = _collection(medium_corpus, size)
        first_s, first = _timed(_match_first, collection)
        late_s, late = _timed(_match_late, collection)
        nop_s, _ = _timed(_no_project, collection)
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
    benchmark(lambda: _match_first(collection))


def test_e3_match_pushdown_uses_index(medium_corpus, benchmark):
    """A leading $match can also use collection indexes (pushdown)."""
    collection = Collection("indexed")
    for paper in medium_corpus[:200]:
        collection.insert_one({"paper_id": paper["paper_id"],
                               "journal": paper["journal"]})
    collection.create_index("journal")
    target = medium_corpus[0]["journal"]

    collection.scan_count = 0
    result = aggregate(collection, [{"$match": {"journal": target}}])
    scanned_indexed = collection.scan_count
    matched = len(result.documents)

    print_table(
        "E3b: $match pushdown onto a secondary index",
        ["strategy", "docs scanned", "docs matched"],
        [["indexed pushdown", scanned_indexed, matched],
         ["full scan", 200, matched]],
    )
    assert scanned_indexed < 200

    benchmark(lambda: aggregate(collection, [
        {"$match": {"journal": target}},
    ]))


def test_e3_phrase_match_examines_only_atom_candidates(medium_corpus):
    """E3c: rows a phrase pipeline's $match examines (``scan_count``)."""
    engine = AllFieldsEngine()
    engine.add_papers(medium_corpus)
    plan = MatchPlan.terms_over_fields(parse_query('"vaccine efficacy"'),
                                       ALL_SEARCH_FIELDS)
    ids = engine.corpus.columnar_index().candidate_ids(plan.prefix_clauses())
    assert ids is not None  # the phrase's prefix narrows the corpus
    shards = engine.collection.shards
    rows = []
    for strategy, match in (
            ("regex over every row", plan.match_document()),
            ("paper_id $in candidates",
             {"paper_id": {"$in": ids}, **plan.match_document()})):
        before = sum(shard.scan_count for shard in shards)
        result = aggregate(engine.collection,
                           [{"$match": match}, {"$project": PROJECT}, RANK])
        rows.append([strategy, sum(shard.scan_count for shard in shards)
                     - before, len(ids), len(result.documents)])
    print_table(
        "E3c: index-backed $match for a quoted phrase",
        ["strategy", "rows examined", "candidates", "rows matched"],
        rows,
        note="the candidates come from the columnar atom dictionaries",
    )
    (_, full, _, matched), (_, indexed, _, indexed_matched) = rows
    assert full == len(medium_corpus)
    assert indexed <= len(ids) < full
    assert indexed_matched == matched
