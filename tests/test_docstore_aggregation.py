"""Tests for the aggregation pipeline engine."""

import pytest

from repro.docstore.aggregation import (
    AggregationPipeline,
    aggregate,
    evaluate_expression,
)
from repro.docstore.collection import Collection
from repro.docstore.documents import ObjectId
from repro.docstore.functions import FunctionRegistry
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

    def test_project_computed_field(self):
        result = aggregate(DOCS, [
            {"$match": {"_id": 1}},
            {"$project": {"double_cites": {"$multiply": ["$cites", 2]},
                          "_id": 0}},
        ])
        assert result.documents == [{"double_cites": 100.0}]

    def test_add_fields(self):
        result = aggregate(DOCS, [
            {"$addFields": {"decade": {"$subtract": ["$year", 2020]}}},
        ])
        assert result.documents[0]["decade"] == 0
        assert result.documents[1]["decade"] == 1


class TestShaping:
    def test_sort_skip_limit(self):
        result = aggregate(DOCS, [
            {"$sort": {"cites": -1}},
            {"$skip": 1},
            {"$limit": 2},
        ])
        assert [d["cites"] for d in result] == [80, 50]

    def test_count(self):
        result = aggregate(DOCS, [
            {"$match": {"year": 2020}},
            {"$count": "n"},
        ])
        assert result.documents == [{"n": 2}]

    def test_unwind(self):
        result = aggregate(DOCS, [
            {"$match": {"_id": 3}},
            {"$unwind": "$tags"},
        ])
        assert [d["tags"] for d in result] == ["mrna", "delta"]

    def test_unwind_drops_empty_by_default(self):
        result = aggregate(DOCS, [{"$unwind": "$tags"}])
        assert all(d["_id"] != 4 for d in result)

    def test_unwind_preserve_empty(self):
        result = aggregate(DOCS, [
            {"$unwind": {"path": "$tags",
                         "preserveNullAndEmptyArrays": True}},
        ])
        assert any(d["_id"] == 4 for d in result)


class TestGroup:
    def test_group_sum_avg(self):
        result = aggregate(DOCS, [
            {"$group": {"_id": "$year",
                        "total": {"$sum": "$cites"},
                        "mean": {"$avg": "$cites"}}},
            {"$sort": {"_id": 1}},
        ])
        assert result.documents == [
            {"_id": 2020, "total": 60, "mean": 30.0},
            {"_id": 2021, "total": 200, "mean": 100.0},
        ]

    def test_group_min_max_push(self):
        result = aggregate(DOCS, [
            {"$group": {"_id": None,
                        "lo": {"$min": "$cites"},
                        "hi": {"$max": "$cites"},
                        "titles": {"$push": "$title"}}},
        ])
        doc = result.documents[0]
        assert doc["lo"] == 10 and doc["hi"] == 120
        assert len(doc["titles"]) == 4

    def test_group_add_to_set_first_last(self):
        result = aggregate(DOCS, [
            {"$sort": {"_id": 1}},
            {"$group": {"_id": "$year",
                        "first_title": {"$first": "$title"},
                        "last_title": {"$last": "$title"}}},
            {"$sort": {"_id": 1}},
        ])
        assert result.documents[0]["first_title"] == "masks"
        assert result.documents[0]["last_title"] == "ventilators"

    def test_group_requires_id(self):
        with pytest.raises(AggregationError):
            aggregate(DOCS, [{"$group": {"x": {"$sum": 1}}}])


class TestFunctionStage:
    def test_function_stage_computes_per_document(self):
        registry = FunctionRegistry()
        registry.register("boost", lambda cites: cites * 10)
        result = aggregate(DOCS, [
            {"$function": {"name": "boost", "args": ["$cites"],
                           "as": "boosted"}},
            {"$match": {"boosted": {"$gte": 800}}},
        ], registry)
        assert {d["_id"] for d in result} == {2, 3}

    def test_function_receives_root(self):
        registry = FunctionRegistry()
        registry.register("label", lambda doc: f"{doc['title']}-{doc['year']}")
        result = aggregate(DOCS[:1], [
            {"$function": {"name": "label", "as": "label"}},
        ], registry)
        assert result.documents[0]["label"] == "masks-2020"

    def test_unknown_function_raises(self):
        with pytest.raises(AggregationError):
            aggregate(DOCS, [{"$function": {"name": "missing"}}],
                      FunctionRegistry())


class TestExpressions:
    REGISTRY = FunctionRegistry()

    def ev(self, expr, doc):
        return evaluate_expression(expr, doc, self.REGISTRY)

    def test_field_reference(self):
        assert self.ev("$a.b", {"a": {"b": 3}}) == 3

    def test_arithmetic(self):
        doc = {"x": 10, "y": 4}
        assert self.ev({"$add": ["$x", "$y", 1]}, doc) == 15
        assert self.ev({"$subtract": ["$x", "$y"]}, doc) == 6
        assert self.ev({"$multiply": ["$x", 2]}, doc) == 20
        assert self.ev({"$divide": ["$x", "$y"]}, doc) == 2.5

    def test_divide_by_zero(self):
        with pytest.raises(AggregationError):
            self.ev({"$divide": [1, 0]}, {})

    def test_concat_and_case(self):
        doc = {"a": "Covid", "b": "KG"}
        assert self.ev({"$concat": ["$a", "-", "$b"]}, doc) == "Covid-KG"
        assert self.ev({"$toLower": "$a"}, doc) == "covid"
        assert self.ev({"$toUpper": "$b"}, doc) == "KG"

    def test_cond_and_ifnull(self):
        doc = {"n": 5}
        expr = {"$cond": [{"$gt": ["$n", 3]}, "big", "small"]}
        assert self.ev(expr, doc) == "big"
        assert self.ev({"$ifNull": ["$missing", "dflt"]}, doc) == "dflt"

    def test_size_and_literal(self):
        doc = {"tags": [1, 2, 3]}
        assert self.ev({"$size": "$tags"}, doc) == 3
        assert self.ev({"$literal": "$tags"}, doc) == "$tags"

    def test_unknown_operator_raises(self):
        with pytest.raises(AggregationError):
            self.ev({"$nonsense": 1}, {})


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
        aggregate(docs, [{"$addFields": {"v": 99}}])
        assert docs[0]["v"] == 1


class TestValidation:
    def test_unknown_stage_rejected_at_construction(self):
        with pytest.raises(AggregationError):
            AggregationPipeline([{"$flatten": {}}])

    def test_multi_key_stage_rejected(self):
        with pytest.raises(AggregationError):
            AggregationPipeline([{"$match": {}, "$limit": 1}])


class TestRegistryIsolation:
    """Each system owns a registry seeded from the defaults, so
    ``$function`` registrations cannot leak across systems."""

    def test_default_registry_seeds_new_registries(self):
        from repro.docstore.functions import default_registry

        default_registry.register("seeded_fn", lambda doc: 42)
        try:
            seeded = FunctionRegistry.with_defaults()
            assert "seeded_fn" in seeded
            # ... but it is a copy: later global additions don't appear,
            # and its own registrations stay out of the next one.
            default_registry.register("late_fn", lambda doc: 0)
            try:
                assert "late_fn" not in seeded
            finally:
                default_registry.unregister("late_fn")
            seeded.register("only_here", lambda doc: 1)
            assert "only_here" not in FunctionRegistry.with_defaults()
        finally:
            default_registry.unregister("seeded_fn")

    def test_covidkg_systems_are_isolated(self):
        from repro.api.system import CovidKG

        system_a = CovidKG()
        system_b = CovidKG()
        system_a.functions.register("system_a_rank", lambda doc: 0.0)
        assert "system_a_rank" not in system_b.functions
        # The three engines of one system share that system's registry.
        assert system_a.all_fields.registry is system_a.functions
        assert system_a.tables.registry is system_a.functions

    def test_registry_copy_is_independent(self):
        original = FunctionRegistry()
        original.register("f", lambda doc: 1)
        clone = original.copy()
        clone.register("g", lambda doc: 2)
        assert "f" in clone
        assert "g" not in original


# -- no aliasing: nothing reachable from a result is stored state ---------

PAPERS = [
    {"paper_id": f"p{number}", "year": 2020 + number % 2,
     "title": f"title {number}", "body": ["intro", "methods"],
     "tables": [{"caption": f"table {number}",
                 "rows": [["dose", number], ["arm", "placebo"]]}],
     "static_rank": {"year": 2020 + number % 2, "num_tables": 1}}
    for number in range(12)
]

#: Every shape of second stage: only the plain ``$project`` ones read the
#: stored rows; all the others still get ``find``'s copies.
SECOND_STAGES = {
    "include": [{"$project": {"tables": 1, "title": 1,
                              "static_rank.year": 1}},
                {"$function": {"name": "scribbler", "as": "score"}}],
    "include, no _id": [{"$project": {"tables.rows": 1, "_id": 0}}],
    "exclude": [{"$project": {"body": 0}},
                {"$function": {"name": "scribbler", "as": "score"}}],
    "empty $project": [{"$project": {}}],
    "$function": [{"$function": {"name": "scribbler", "as": "score"}}],
    "$addFields": [{"$addFields": {"first_table": "$tables.0"}}],
    "$unwind": [{"$unwind": "$tables"}],
    "expression $project": [{"$project": {"tables": 1,
                                          "rank": "$static_rank"}}],
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


def _scribbler(document):
    """A ``$function`` that vandalises the document it is handed."""
    for table in document.get("tables", []):
        if isinstance(table, dict) and "rows" in table:
            table["rows"].append(["scribbled"])
    document["seen"] = True
    return len(document)


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
    registry = FunctionRegistry()
    registry.register("scribbler", _scribbler)
    stages = [{"$match": {"year": 2021}}] + SECOND_STAGES[shape]

    def run():
        if layout == "sharded":
            return source.aggregate(stages, registry)
        return aggregate(source, stages, registry)

    stored = _stored(source)
    first = run()
    assert len(first.documents) >= 6
    snapshot = repr(first.documents)
    assert _stored(source) == stored  # the $function scribbled on copies
    _scribble(first.documents)
    assert _stored(source) == stored
    assert repr(run().documents) == snapshot
    assert _stored(source) == stored
