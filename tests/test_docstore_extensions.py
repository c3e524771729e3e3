"""Tests for docstore extensions: upserts, array expressions, and the
stages the engine no longer knows."""

import pytest

from repro.docstore.aggregation import aggregate
from repro.docstore.collection import Collection
from repro.errors import AggregationError

PAPERS = [
    {"_id": 1, "title": "masks", "journal": "JAMA", "year": 2020,
     "cites": 50},
    {"_id": 2, "title": "vaccines", "journal": "BMJ", "year": 2021,
     "cites": 120},
    {"_id": 3, "title": "variants", "journal": "JAMA", "year": 2021,
     "cites": 80},
    {"_id": 4, "title": "ventilators", "journal": "Cell", "year": 2020,
     "cites": 10},
]


class TestRetiredStages:
    """Stages outside PAPER.md §2's list are unknown to the engine."""

    @pytest.mark.parametrize("stage", [
        {"$lookup": {"from": [], "localField": "journal",
                     "foreignField": "name", "as": "info"}},
        {"$facet": {"a": [{"$match": {}}]}},
        {"$sample": {"size": 2}},
        {"$bucket": {"groupBy": "$cites", "boundaries": [0, 100]}},
        {"$sortByCount": "$journal"},
        {"$replaceRoot": {"newRoot": "$title"}},
    ], ids=lambda stage: next(iter(stage)).lstrip("$"))
    def test_unknown_stage(self, stage):
        with pytest.raises(AggregationError, match="unknown stage"):
            aggregate(PAPERS, [stage])


class TestUpsert:
    def test_update_one_upsert_inserts(self):
        coll = Collection()
        modified = coll.update_one({"key": "a"}, {"$inc": {"n": 1}},
                                   upsert=True)
        assert modified == 1
        assert coll.find_one({"key": "a"})["n"] == 1

    def test_upsert_applies_set_on_insert_only_on_insert(self):
        coll = Collection()
        update = {"$inc": {"n": 1}, "$setOnInsert": {"created": "day0"}}
        coll.update_one({"key": "a"}, update, upsert=True)
        coll.update_one({"key": "a"}, update, upsert=True)
        doc = coll.find_one({"key": "a"})
        assert doc["n"] == 2
        assert doc["created"] == "day0"
        assert coll.count() == 1

    def test_upsert_seeds_from_equality_constraints(self):
        coll = Collection()
        coll.update_one({"a": 1, "b": {"$eq": 2}, "c": {"$gt": 5}},
                        {"$set": {"x": True}}, upsert=True)
        doc = coll.find_one({"a": 1})
        assert doc["b"] == 2
        assert "c" not in doc  # range constraints do not seed


class TestFindOneAndUpdate:
    def test_returns_new_by_default(self):
        coll = Collection()
        coll.insert_one({"k": "a", "n": 1})
        doc = coll.find_one_and_update({"k": "a"}, {"$inc": {"n": 1}})
        assert doc["n"] == 2

    def test_returns_old_when_requested(self):
        coll = Collection()
        coll.insert_one({"k": "a", "n": 1})
        doc = coll.find_one_and_update({"k": "a"}, {"$inc": {"n": 1}},
                                       return_new=False)
        assert doc["n"] == 1
        assert coll.find_one({"k": "a"})["n"] == 2

    def test_no_match_returns_none(self):
        assert Collection().find_one_and_update(
            {"k": "zzz"}, {"$set": {"x": 1}}
        ) is None

    def test_upsert_path(self):
        coll = Collection()
        doc = coll.find_one_and_update({"k": "a"}, {"$set": {"x": 1}},
                                       upsert=True)
        assert doc["x"] == 1


class TestArrayExpressions:
    DOC = {"rates": [5.0, 60.0, 20.0],
           "effects": [{"name": "fever", "rate": 30.0},
                       {"name": "rash", "rate": 2.0}],
           "tag": "fever"}

    def ev(self, expr):
        from repro.docstore.aggregation import evaluate_expression
        from repro.docstore.functions import FunctionRegistry
        return evaluate_expression(expr, self.DOC, FunctionRegistry())

    def test_in_expression(self):
        assert self.ev({"$in": [20.0, "$rates"]}) is True
        assert self.ev({"$in": [99.0, "$rates"]}) is False

    def test_in_requires_array(self):
        with pytest.raises(AggregationError):
            self.ev({"$in": [1, "$tag"]})

    def test_array_elem_at(self):
        assert self.ev({"$arrayElemAt": ["$rates", 1]}) == 60.0
        assert self.ev({"$arrayElemAt": ["$rates", -1]}) == 20.0
        assert self.ev({"$arrayElemAt": ["$rates", 9]}) is None

    def test_filter_scalars(self):
        result = self.ev({"$filter": {
            "input": "$rates",
            "cond": {"$gt": ["$$this", 10.0]},
        }})
        assert result == [60.0, 20.0]

    def test_filter_documents_with_custom_variable(self):
        result = self.ev({"$filter": {
            "input": "$effects", "as": "effect",
            "cond": {"$gte": ["$$effect.rate", 10.0]},
        }})
        assert [item["name"] for item in result] == ["fever"]

    def test_map(self):
        result = self.ev({"$map": {
            "input": "$rates",
            "in": {"$multiply": ["$$this", 2]},
        }})
        assert result == [10.0, 120.0, 40.0]

    def test_map_over_documents(self):
        result = self.ev({"$map": {
            "input": "$effects", "as": "e",
            "in": "$$e.name",
        }})
        assert result == ["fever", "rash"]

    def test_min_max_expr(self):
        assert self.ev({"$minExpr": ["$tag", {"$literal": "alpha"}]}) == (
            "alpha"
        )
        assert self.ev({"$maxExpr": [1, 5, 3]}) == 5

    def test_filter_inside_pipeline(self):
        docs = [{"effects": [{"rate": 5.0}, {"rate": 50.0}]}]
        result = aggregate(docs, [
            {"$addFields": {"severe": {"$filter": {
                "input": "$effects",
                "cond": {"$gte": ["$$this.rate", 10.0]},
            }}}},
            {"$project": {"n": {"$size": "$severe"}, "_id": 0}},
        ])
        assert result.documents == [{"n": 1}]
