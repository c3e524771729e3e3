"""Tests for what the docstore no longer knows: the stages outside
PAPER.md §2 and the expression operators."""

import pytest

from repro.docstore.aggregation import aggregate
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


class TestRetiredExpressions:
    """There are no expression operators: a ``$project`` that computes
    a field is refused when the pipeline is built."""

    @pytest.mark.parametrize("expression", [
        {"$in": [1, "$rates"]},
        {"$arrayElemAt": ["$rates", 0]},
        {"$filter": {"input": "$rates", "cond": True}},
        {"$map": {"input": "$rates", "in": "$$this"}},
        {"$minExpr": [1, 2]},
        {"$maxExpr": [1, 2]},
    ], ids=lambda expression: next(iter(expression)).lstrip("$"))
    def test_unknown_expression_operator(self, expression):
        with pytest.raises(AggregationError, match="not expressions"):
            aggregate([{"rates": [1, 2]}],
                      [{"$project": {"out": expression}}])
