"""Tests for document primitives: ObjectId, deep path access."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.docstore.documents import (
    ObjectId,
    deep_get,
    deep_set,
    deep_unset,
    document_bytes,
    validate_document,
)
from repro.errors import DocumentError


class TestObjectId:
    def test_ids_are_unique_and_increasing(self):
        first, second = ObjectId(), ObjectId()
        assert first != second
        assert first < second

    def test_string_roundtrip(self):
        oid = ObjectId()
        assert ObjectId.parse(str(oid)) == oid

    def test_equality_with_string_form(self):
        oid = ObjectId()
        assert oid == str(oid)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DocumentError):
            ObjectId.parse("not-an-oid")

    def test_hashable(self):
        oid = ObjectId()
        assert oid in {oid}


class TestDeepGet:
    DOC = {
        "title": "paper",
        "meta": {"year": 2021, "venue": {"name": "EDBT"}},
        "authors": [{"name": "a"}, {"name": "b"}],
        "scores": [1, 2, 3],
    }

    def test_top_level(self):
        assert deep_get(self.DOC, "title") == "paper"

    def test_nested(self):
        assert deep_get(self.DOC, "meta.venue.name") == "EDBT"

    def test_array_index(self):
        assert deep_get(self.DOC, "authors.1.name") == "b"
        assert deep_get(self.DOC, "scores.0") == 1

    def test_array_fanout(self):
        assert deep_get(self.DOC, "authors.name") == ["a", "b"]

    def test_missing_returns_default(self):
        assert deep_get(self.DOC, "meta.absent", "fallback") == "fallback"
        assert deep_get(self.DOC, "absent.deeper") is None

    def test_index_out_of_range(self):
        assert deep_get(self.DOC, "scores.99") is None


class TestDeepSet:
    def test_set_creates_intermediates(self):
        doc = {}
        deep_set(doc, "a.b.c", 1)
        assert doc == {"a": {"b": {"c": 1}}}

    def test_set_into_list(self):
        doc = {"items": [{"v": 1}]}
        deep_set(doc, "items.0.v", 2)
        assert doc["items"][0]["v"] == 2

    def test_set_extends_list(self):
        doc = {}
        deep_set(doc, "items.2", "x")
        assert doc["items"] == [None, None, "x"]

    def test_set_overwrites_scalar_intermediate(self):
        doc = {"a": 5}
        deep_set(doc, "a.b", 1)
        assert doc == {"a": {"b": 1}}

    def test_non_numeric_list_part_raises(self):
        doc = {"items": [1, 2]}
        with pytest.raises(DocumentError):
            deep_set(doc, "items.bad", 1)


class TestDeepUnset:
    def test_unset_removes(self):
        doc = {"a": {"b": 1, "c": 2}}
        assert deep_unset(doc, "a.b")
        assert doc == {"a": {"c": 2}}

    def test_unset_missing_is_noop(self):
        doc = {"a": 1}
        assert not deep_unset(doc, "x.y")
        assert doc == {"a": 1}

    def test_unset_list_element(self):
        doc = {"items": [1, 2, 3]}
        assert deep_unset(doc, "items.1")
        assert doc["items"] == [1, 3]


class TestValidate:
    def test_rejects_non_dict(self):
        with pytest.raises(DocumentError):
            validate_document([1, 2])

    def test_rejects_dollar_keys(self):
        with pytest.raises(DocumentError):
            validate_document({"$bad": 1})

    def test_rejects_non_string_keys(self):
        with pytest.raises(DocumentError):
            validate_document({1: "x"})

    def test_accepts_normal_document(self):
        assert validate_document({"ok": 1}) == {"ok": 1}


def test_document_bytes_counts_serialized_size():
    small = document_bytes({"a": 1})
    large = document_bytes({"a": 1, "text": "x" * 100})
    assert large > small + 90


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=10)
)


@given(st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=3),
                       _json_scalars, max_size=5),
       st.text(alphabet="xyz", min_size=1, max_size=3),
       _json_scalars)
def test_deep_set_then_get_roundtrip(doc, key, value):
    deep_set(doc, key, value)
    assert deep_get(doc, key) == value
