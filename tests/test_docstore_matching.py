"""Tests for the MongoDB-style query language."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.docstore.aggregation import aggregate
from repro.docstore.collection import Collection
from repro.docstore.documents import ObjectId
from repro.docstore.matching import (
    compile_filter,
    key_constraints,
    matches,
)
from repro.docstore.sharding import ShardedCollection
from repro.errors import QueryError
from tests.matching_reference import matches as reference_matches

DOC = {
    "title": "Vaccine efficacy study",
    "year": 2021,
    "score": 4.5,
    "tags": ["vaccine", "efficacy"],
    "meta": {"venue": "EDBT", "pages": 12},
    "authors": [
        {"name": "smith", "cites": 10},
        {"name": "jones", "cites": 3},
    ],
    "retracted": False,
    "doi": None,
}


class TestEquality:
    def test_literal_match(self):
        assert matches(DOC, {"year": 2021})
        assert not matches(DOC, {"year": 2020})

    def test_nested_path(self):
        assert matches(DOC, {"meta.venue": "EDBT"})

    def test_array_contains(self):
        assert matches(DOC, {"tags": "vaccine"})
        assert not matches(DOC, {"tags": "masks"})

    def test_whole_array_equality(self):
        assert matches(DOC, {"tags": ["vaccine", "efficacy"]})

    def test_none_matches_missing_field(self):
        assert matches(DOC, {"absent": None})
        assert matches(DOC, {"doi": None})

    def test_empty_query_matches_everything(self):
        assert matches(DOC, {})


class TestComparisons:
    def test_gt_gte_lt_lte(self):
        assert matches(DOC, {"year": {"$gt": 2020}})
        assert matches(DOC, {"year": {"$gte": 2021}})
        assert matches(DOC, {"year": {"$lt": 2022}})
        assert matches(DOC, {"year": {"$lte": 2021}})
        assert not matches(DOC, {"year": {"$gt": 2021}})

    def test_ne(self):
        assert matches(DOC, {"year": {"$ne": 1999}})
        assert not matches(DOC, {"year": {"$ne": 2021}})

    @pytest.mark.parametrize("operand, expected",
                             [("x", False), ("z", True)])
    def test_ne_on_an_array_agrees_with_nin_and_not_eq(self, operand,
                                                        expected):
        doc = {"tags": ["x", "y"]}
        assert matches(doc, {"tags": {"$ne": operand}}) is expected
        assert matches(doc, {"tags": {"$nin": [operand]}}) is expected
        assert matches(doc, {"tags": {"$not": {"$eq": operand}}}) is expected

    def test_ne_compares_the_whole_array_too(self):
        assert not matches({"tags": ["x"]}, {"tags": {"$ne": ["x"]}})
        assert matches({"tags": ["x"]}, {"tags": {"$ne": ["y"]}})

    def test_in_nin(self):
        assert matches(DOC, {"year": {"$in": [2020, 2021]}})
        assert matches(DOC, {"year": {"$nin": [1999]}})
        assert matches(DOC, {"tags": {"$in": ["vaccine", "zzz"]}})

    def test_in_nin_keep_list_equality_where_a_set_would_differ(self):
        # Hashable operands compile to a set; a dict or list item, or an
        # ObjectId (equal to its string form, hashed differently), keeps
        # the list's == comparison.  Same verdicts as the reference.
        oid = ObjectId(7)
        cases = [
            ({"a": {"k": 1}}, [{"k": 1}, [1, 2], 3], True),
            ({"a": [[1, 2]]}, [{"k": 1}, [1, 2], 3], True),
            ({"a": 3.0}, [{"k": 1}, [1, 2], 3], True),
            ({"a": [1, 2]}, [{"k": 1}, [1, 2], 3], False),
            ({"a": oid}, [str(oid)], True),
            ({"a": str(oid)}, [oid], True),
            ({"a": {"k": 1}}, [1, "k"], False),  # no TypeError
            ({"a": [{"k": 1}, 2]}, [1, "k", 2.0], True),
            ({"a": True}, [1], True),
        ]
        for document, operand, found in cases:
            for op, want in (("$in", found), ("$nin", not found)):
                query = {"a": {op: operand}}
                assert matches(document, query) is want, (document, query)
                assert reference_matches(document, query) is want

    def test_in_requires_list(self):
        with pytest.raises(QueryError):
            matches(DOC, {"year": {"$in": 2021}})

    def test_cross_type_comparison_never_matches(self):
        assert not matches(DOC, {"title": {"$gt": 5}})

    def test_range_query(self):
        assert matches(DOC, {"score": {"$gte": 4, "$lt": 5}})

    def test_missing_field_fails_gt(self):
        assert not matches(DOC, {"absent": {"$gt": 0}})

    def test_missing_field_satisfies_ne(self):
        assert matches(DOC, {"absent": {"$ne": 5}})


class TestElementOperators:
    def test_exists(self):
        assert matches(DOC, {"title": {"$exists": True}})
        assert matches(DOC, {"absent": {"$exists": False}})
        assert not matches(DOC, {"absent": {"$exists": True}})

    def test_type(self):
        assert matches(DOC, {"year": {"$type": "int"}})
        assert matches(DOC, {"title": {"$type": "string"}})
        assert matches(DOC, {"tags": {"$type": "array"}})
        assert matches(DOC, {"retracted": {"$type": "bool"}})
        assert not matches(DOC, {"retracted": {"$type": "int"}})

    def test_size(self):
        assert matches(DOC, {"tags": {"$size": 2}})
        assert not matches(DOC, {"tags": {"$size": 3}})


class TestStringAndArray:
    def test_regex(self):
        assert matches(DOC, {"title": {"$regex": "efficacy"}})
        assert matches(DOC, {"title": {"$regex": "VACCINE",
                                       "$options": "i"}})
        assert not matches(DOC, {"title": {"$regex": "^efficacy"}})

    def test_regex_over_array(self):
        assert matches(DOC, {"tags": {"$regex": "^vac"}})

    def test_all(self):
        assert matches(DOC, {"tags": {"$all": ["vaccine", "efficacy"]}})
        assert not matches(DOC, {"tags": {"$all": ["vaccine", "zzz"]}})

    def test_elem_match(self):
        query = {"authors": {"$elemMatch": {"name": "smith",
                                            "cites": {"$gt": 5}}}}
        assert matches(DOC, query)
        bad = {"authors": {"$elemMatch": {"name": "jones",
                                          "cites": {"$gt": 5}}}}
        assert not matches(DOC, bad)


class TestLogical:
    def test_and(self):
        assert matches(DOC, {"$and": [{"year": 2021}, {"meta.venue": "EDBT"}]})

    def test_or(self):
        assert matches(DOC, {"$or": [{"year": 1999}, {"year": 2021}]})
        assert not matches(DOC, {"$or": [{"year": 1999}, {"year": 1998}]})

    def test_nor(self):
        assert matches(DOC, {"$nor": [{"year": 1999}]})
        assert not matches(DOC, {"$nor": [{"year": 2021}]})

    def test_field_not(self):
        assert matches(DOC, {"year": {"$not": {"$lt": 2000}}})
        assert not matches(DOC, {"year": {"$not": {"$gte": 2000}}})

    def test_where(self):
        assert matches(DOC, {"$where": lambda d: d["year"] % 2 == 1})


class TestErrors:
    def test_unknown_operator(self):
        with pytest.raises(QueryError):
            matches(DOC, {"year": {"$bogus": 1}})

    def test_unknown_toplevel_operator(self):
        with pytest.raises(QueryError):
            matches(DOC, {"$bogus": []})

    def test_query_must_be_dict(self):
        with pytest.raises(QueryError):
            matches(DOC, ["not", "a", "dict"])


MALFORMED = [
    {"a": {"$bogus": 1}},
    {"$bogus": []},
    {"a": {"$in": 3}},
    {"a": {"$all": "x"}},
    {"a": {"$type": "nonsense"}},
    {"a": {"$not": 5}},
    {"a": {"$where": "this.a > 1"}},
    {"a": {"$elemMatch": {"$gt": 1}}},
    {"$and": {"a": 1}},
    {"$or": [{"a": 1}, {"b": {"$bogus": 1}}]},
    {"$where": "true"},
]


class TestCompileTimeValidation:
    @pytest.mark.parametrize("query", MALFORMED)
    def test_malformed_filter_raises_on_every_collection(self, query):
        full = Collection("full")
        full.insert_one({"a": 1, "b": 2})
        sharded = ShardedCollection("sharded", "a", num_shards=2)
        for collection in (Collection("empty"), full, sharded):
            with pytest.raises(QueryError):
                collection.find(query)
            with pytest.raises(QueryError):
                collection.find_one(query)
            with pytest.raises(QueryError):
                collection.count(query)
        with pytest.raises(QueryError):
            compile_filter(query)

    def test_malformed_match_stage_raises_without_documents(self):
        with pytest.raises(QueryError):
            aggregate([], [{"$match": {"a": {"$bogus": 1}}}])

    def test_invalid_regex_raises_at_compile_time(self):
        query = {"a": {"$regex": "(unclosed"}}
        with pytest.raises(re.error):
            compile_filter(query)
        with pytest.raises(re.error):
            Collection("empty").find(query)

    def test_compiled_predicate_is_reusable(self):
        recent = compile_filter({"year": {"$gte": 2021},
                                 "tags": {"$regex": "^VAC", "$options": "i"}})
        assert [recent(doc) for doc in (DOC, {"year": 2022}, DOC)] == [
            True, False, True]


class TestHelpers:
    def test_key_constraints(self):
        query = {"a": 1, "b": {"$eq": 2}, "c": {"$gt": 3}, "$or": [],
                 "d": {"$in": [4, 5], "$ne": 4}, "e": None,
                 "f": {"$in": [6, None]}, "g": [7], "h": {"$eq": {"k": 8}}}
        assert key_constraints(query) == {"a": [1], "b": [2], "d": [4, 5]}


@given(st.integers(), st.integers())
def test_gt_lt_are_consistent(value, bound):
    doc = {"x": value}
    gt = matches(doc, {"x": {"$gt": bound}})
    lte = matches(doc, {"x": {"$lte": bound}})
    assert gt != lte


@given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       st.integers(-5, 5), max_size=3),
       st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       st.integers(-5, 5), max_size=3))
def test_literal_query_matches_iff_subset(doc, query):
    expected = all(key in doc and doc[key] == val
                   for key, val in query.items())
    assert matches(doc, query) == expected
