"""Tests for the MongoDB-style filter language."""

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
    def test_in(self):
        assert matches(DOC, {"year": {"$in": [2020, 2021]}})
        assert not matches(DOC, {"year": {"$in": [1999]}})
        assert matches(DOC, {"tags": {"$in": ["vaccine", "zzz"]}})

    def test_in_keeps_list_equality_where_a_set_would_differ(self):
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
            query = {"a": {"$in": operand}}
            assert matches(document, query) is found, (document, query)
            assert reference_matches(document, query) is found

    def test_in_requires_list(self):
        with pytest.raises(QueryError):
            matches(DOC, {"year": {"$in": 2021}})

    def test_missing_field_matches_only_an_in_listing_none(self):
        assert matches(DOC, {"absent": {"$in": [None, 1]}})
        assert not matches(DOC, {"absent": {"$in": [1]}})
        assert not matches(DOC, {"absent": {"$regex": ""}})
        assert not matches(DOC, {"absent": {"$in": [None],
                                            "$regex": ""}})


class TestStringAndArray:
    def test_regex(self):
        assert matches(DOC, {"title": {"$regex": "efficacy"}})
        assert matches(DOC, {"title": {"$regex": "VACCINE",
                                       "$options": "i"}})
        assert not matches(DOC, {"title": {"$regex": "^efficacy"}})

    def test_regex_over_array(self):
        assert matches(DOC, {"tags": {"$regex": "^vac"}})


class TestLogical:
    def test_and(self):
        assert matches(DOC, {"$and": [{"year": 2021}, {"meta.venue": "EDBT"}]})

    def test_or(self):
        assert matches(DOC, {"$or": [{"year": 1999}, {"year": 2021}]})
        assert not matches(DOC, {"$or": [{"year": 1999}, {"year": 1998}]})


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
    {"a": {"$options": "i"}},
    {"$and": {"a": 1}},
    {"$or": [{"a": 1}, {"b": {"$bogus": 1}}]},
]

#: Every operator the store once compiled and no caller sends, each
#: with an operand it accepted.
REMOVED_FIELD_OPERATORS = {
    "$eq": 1, "$ne": 1, "$gt": 1, "$gte": 1, "$lt": 1, "$lte": 1,
    "$nin": [1], "$exists": True, "$type": "int", "$size": 1,
    "$all": [1], "$elemMatch": {"b": 1}, "$nor": [{"b": 1}],
    "$not": {"$in": [1]}, "$where": lambda value: True,
}
REMOVED_TOP_LEVEL_OPERATORS = {
    "$nor": [{"a": 1}], "$not": {"a": 1}, "$where": lambda document: True,
}
REMOVED = [
    pytest.param({"a": {op: operand}}, id=f"field-{op}")
    for op, operand in REMOVED_FIELD_OPERATORS.items()
] + [
    pytest.param({op: operand}, id=f"top-{op}")
    for op, operand in REMOVED_TOP_LEVEL_OPERATORS.items()
]


@pytest.mark.parametrize("query", REMOVED)
def test_removed_operator_is_refused(query):
    """Every read, and the pipeline, refuse it before reading a row."""
    collection = Collection("full")
    collection.insert_one({"a": 1, "b": 2})
    with pytest.raises(QueryError):
        compile_filter(query)
    for read in (collection.find, collection.find_one, collection.count):
        with pytest.raises(QueryError):
            read(query)
    with pytest.raises(QueryError):
        aggregate(collection, [{"$match": query}])
    assert collection.scan_count == 0


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
        recent = compile_filter({"year": {"$in": [2021, 2022]},
                                 "tags": {"$regex": "^VAC", "$options": "i"}})
        assert [recent(doc) for doc in (DOC, {"year": 2022}, DOC)] == [
            True, False, True]


class TestHelpers:
    def test_key_constraints(self):
        query = {"a": 1, "b": {"$in": [2]}, "c": {"$regex": "3"},
                 "$or": [], "d": {"$in": [4, 5], "$regex": "4"}, "e": None,
                 "f": {"$in": [6, None]}, "g": [7], "h": {"k": 8}}
        assert key_constraints(query) == {"a": [1], "b": [2], "d": [4, 5]}


@given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       st.integers(-5, 5), max_size=3),
       st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       st.integers(-5, 5), max_size=3))
def test_literal_query_matches_iff_subset(doc, query):
    expected = all(key in doc and doc[key] == val
                   for key, val in query.items())
    assert matches(doc, query) == expected
