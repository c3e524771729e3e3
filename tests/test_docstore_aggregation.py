"""Tests for the aggregation pipeline engine."""

import pytest

from repro.docstore.aggregation import AggregationPipeline, aggregate
from repro.docstore.collection import Collection
from repro.docstore.documents import ObjectId
from repro.docstore.sharding import ShardedCollection
from repro.errors import AggregationError

DOCS = [
    {"_id": 1, "title": "masks", "year": 2020, "cites": 50,
     "tags": ["ppe", "cloth"]},
    {"_id": 2, "title": "vaccines", "year": 2021, "cites": 120,
     "tags": ["mrna"]},
    {"_id": 3, "title": "variants", "year": 2021, "cites": 80,
     "tags": ["mrna", "delta"]},
    {"_id": 4, "title": "ventilators", "year": 2020, "cites": 10,
     "tags": []},
]


def collection():
    coll = Collection("agg")
    coll.insert_many(DOCS)
    return coll


class TestMatchProject:
    def test_match_filters(self):
        result = aggregate(DOCS, [{"$match": {"year": 2021}}])
        assert {d["_id"] for d in result} == {2, 3}

    def test_project_inclusion(self):
        result = aggregate(DOCS, [
            {"$match": {"_id": 1}},
            {"$project": {"title": 1, "_id": 0}},
        ])
        assert result.documents == [{"title": "masks"}]


class TestShaping:
    def test_sort_skip_limit(self):
        result = aggregate(DOCS, [
            {"$sort": {"cites": -1}},
            {"$skip": 1},
            {"$limit": 2},
        ])
        assert [d["cites"] for d in result] == [80, 50]


class TestFunctionStage:
    def test_function_stage_computes_per_document(self):
        result = aggregate(DOCS, [
            {"$function": {"body": lambda doc: doc["cites"] * 10,
                           "as": "boosted"}},
            {"$match": {"boosted": {"$in": [800, 1200]}}},
        ])
        assert {d["_id"] for d in result} == {2, 3}

    def test_function_receives_root(self):
        result = aggregate(DOCS[:1], [
            {"$function": {
                "body": lambda doc: f"{doc['title']}-{doc['year']}",
                "as": "label"}},
        ])
        assert result.documents[0]["label"] == "masks-2020"

    def test_unknown_function_raises(self):
        # A stage that names a function instead of carrying one.
        with pytest.raises(AggregationError):
            aggregate(DOCS, [{"$function": {"name": "missing"}}])


class TestPushdownAndStats:
    def test_leading_match_uses_collection_index(self):
        coll = collection()
        coll.create_index("year")
        coll.scan_count = 0
        pipeline = AggregationPipeline([{"$match": {"year": 2021}}])
        result = pipeline.run(coll)
        assert len(result) == 2
        assert coll.scan_count == 2  # indexed, not a full scan
        assert result.stages[0].stage == "$match(indexed)"

    def test_stage_stats_track_docs_in_out(self):
        result = aggregate(DOCS, [
            {"$match": {"year": 2021}},
            {"$limit": 1},
        ])
        assert result.stages[0].docs_in == 4
        assert result.stages[0].docs_out == 2
        assert result.stages[1].docs_out == 1
        assert result.total_seconds >= 0

    def test_pipeline_does_not_mutate_source(self):
        docs = [{"_id": 1, "v": 1}]
        aggregate(docs, [{"$function": {"body": lambda doc: 99, "as": "v"}}])
        assert docs[0]["v"] == 1


def _rank(document):
    return 1.0


#: Shapes the engine refuses before it reads a document.
REJECTED_STAGES = [
    {"$flatten": {}},
    # Stages MongoDB has and the engine does not implement.
    {"$group": {"_id": "$year", "n": {"$sum": 1}}},
    {"$unwind": "$tags"},
    {"$addFields": {"decade": 2020}},
    {"$count": "n"},
    # $function carries a callable body and names its output.
    {"$function": {"body": "rank", "as": "score"}},
    {"$function": {"name": "rank", "as": "score"}},
    {"$function": {"body": _rank}},
    {"$function": _rank},
    # $project is an inclusion, nothing computed or excluded.
    {"$project": {"title": "$year"}},
    {"$project": {"title": 2}},
    {"$project": {"double": {"$multiply": ["$cites", 2]}}},
    {"$project": ["title"]},
    {"$project": {"body": 0}},
    {"$project": {"title": 1, "tags": 0}},
]


class TestValidation:
    def test_unknown_stage_rejected_at_construction(self):
        for stage in REJECTED_STAGES:
            with pytest.raises(AggregationError):
                AggregationPipeline([{"$match": {}}, stage])

    def test_multi_key_stage_rejected(self):
        with pytest.raises(AggregationError):
            AggregationPipeline([{"$match": {}, "$limit": 1}])


# -- no aliasing: nothing reachable from a result is stored state ---------

PAPERS = [
    {"paper_id": f"p{number}", "year": 2020 + number % 2,
     "title": f"title {number}", "body": ["intro", "methods"],
     "tables": [{"caption": f"table {number}",
                 "rows": [["dose", number], ["arm", "placebo"]]}],
     "static_rank": {"year": 2020 + number % 2, "num_tables": 1}}
    for number in range(12)
]


def _scribbler(document):
    """A ``$function`` that vandalises the document it is handed."""
    for table in document.get("tables", []):
        if isinstance(table, dict) and "rows" in table:
            table["rows"].append(["scribbled"])
    document["seen"] = True
    return len(document)


SCRIBBLE = {"$function": {"body": _scribbler, "as": "score"}}

#: Every shape of second stage: only the ``$project`` ones read the
#: stored rows; all the others still get ``find``'s copies.  The
#: scribbling ``$function`` is the stage that writes into what it gets.
SECOND_STAGES = {
    "include": [{"$project": {"tables": 1, "title": 1,
                              "static_rank.year": 1}}, SCRIBBLE],
    "include, no _id": [{"$project": {"tables.rows": 1, "_id": 0}}],
    "empty $project": [{"$project": {}}, SCRIBBLE],
    "$function": [SCRIBBLE],
    "$function twice": [SCRIBBLE, SCRIBBLE],
    "$sort": [{"$sort": {"paper_id": -1}}, SCRIBBLE],
    "$skip, $limit": [{"$skip": 0}, {"$limit": 6}, SCRIBBLE],
    "ranked page": [{"$project": {"tables": 1, "paper_id": 1}}, SCRIBBLE,
                    {"$sort": {"score": -1, "paper_id": 1}},
                    {"$skip": 0}, {"$limit": 6}],
    "nothing": [],
}


def _scribble(value):
    """Mutate every container (and ObjectId) reachable from ``value``."""
    if isinstance(value, dict):
        for item in list(value.values()):
            _scribble(item)
        value.clear()
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            _scribble(item)
        value[:] = ["scribbled"]
    elif isinstance(value, ObjectId):
        value.value = -1


def _stored(source):
    shards = source.shards if isinstance(source, ShardedCollection) \
        else [source]
    return [repr(sorted(document.items()))
            for shard in shards for document in shard._documents.values()]


def _sources():
    plain = Collection("papers")
    sharded = ShardedCollection("papers", "paper_id", num_shards=3)
    for source in (plain, sharded):
        source.create_index("year")
        source.insert_many(PAPERS)
    return {"plain": plain, "sharded": sharded}


@pytest.mark.parametrize("layout", ["plain", "sharded"])
@pytest.mark.parametrize("shape", list(SECOND_STAGES))
def test_aggregate_results_never_alias_stored_documents(layout, shape):
    source = _sources()[layout]
    stages = [{"$match": {"year": 2021}}] + SECOND_STAGES[shape]

    def run():
        if layout == "sharded":
            return source.aggregate(stages)
        return aggregate(source, stages)

    stored = _stored(source)
    first = run()
    assert len(first.documents) >= 6
    snapshot = repr(first.documents)
    assert _stored(source) == stored  # the $function scribbled on copies
    _scribble(first.documents)
    assert _stored(source) == stored
    assert repr(run().documents) == snapshot
    assert _stored(source) == stored
