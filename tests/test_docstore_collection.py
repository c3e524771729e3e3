"""Tests for Collection CRUD, cursors, update operators, and indexes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.docstore import collection as collection_module
from repro.docstore.collection import Collection, apply_projection
from repro.docstore.documents import ObjectId
from repro.errors import DocumentError, DuplicateKeyError


@pytest.fixture()
def papers():
    collection = Collection("papers")
    collection.insert_many([
        {"title": "masks", "year": 2020, "cites": 50, "tags": ["ppe"]},
        {"title": "vaccines", "year": 2021, "cites": 120, "tags": ["mrna"]},
        {"title": "variants", "year": 2021, "cites": 80,
         "tags": ["mrna", "delta"]},
        {"title": "ventilators", "year": 2020, "cites": 10, "tags": []},
    ])
    return collection


class TestInsert:
    def test_insert_assigns_object_id(self):
        collection = Collection()
        doc_id = collection.insert_one({"x": 1})
        assert isinstance(doc_id, ObjectId)
        assert collection.find_by_id(doc_id)["x"] == 1

    def test_insert_respects_explicit_id(self):
        collection = Collection()
        collection.insert_one({"_id": "custom", "x": 1})
        assert collection.find_by_id("custom")["x"] == 1

    def test_duplicate_id_rejected(self):
        collection = Collection()
        collection.insert_one({"_id": "a"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": "a"})

    def test_insert_copies_input(self):
        collection = Collection()
        original = {"nested": {"v": 1}}
        doc_id = collection.insert_one(original)
        original["nested"]["v"] = 999
        assert collection.find_by_id(doc_id)["nested"]["v"] == 1

    def test_reads_are_copies(self, papers):
        doc = papers.find_one({"title": "masks"})
        doc["title"] = "mutated"
        assert papers.find_one({"title": "masks"}) is not None


class TestFind:
    def test_find_all(self, papers):
        assert len(papers.find()) == 4

    def test_find_with_filter(self, papers):
        assert len(papers.find({"year": 2021})) == 2

    def test_find_one_returns_none_when_absent(self, papers):
        assert papers.find_one({"title": "nope"}) is None

    def test_sort_ascending_and_descending(self, papers):
        asc = [d["cites"] for d in papers.find().sort("cites")]
        desc = [d["cites"] for d in papers.find().sort("cites", -1)]
        assert asc == sorted(asc)
        assert desc == sorted(desc, reverse=True)

    def test_multi_key_sort(self, papers):
        results = papers.find().sort([("year", 1), ("cites", -1)]).to_list()
        assert [(d["year"], d["cites"]) for d in results] == [
            (2020, 50), (2020, 10), (2021, 120), (2021, 80),
        ]

    def test_skip_limit(self, papers):
        page = papers.find().sort("cites").skip(1).limit(2).to_list()
        assert [d["cites"] for d in page] == [50, 80]

    def test_projection_inclusion(self, papers):
        doc = papers.find_one({"title": "masks"}, {"title": 1, "_id": 0})
        assert doc == {"title": "masks"}

    def test_projection_exclusion(self, papers):
        doc = papers.find_one({"title": "masks"}, {"tags": 0, "_id": 0})
        assert doc == {"title": "masks", "year": 2020, "cites": 50}

    def test_projection_emits_fields_in_its_own_order(self):
        # Eight included paths: iterating them as a set put them in an
        # order that changed with PYTHONHASHSEED.
        names = ["h", "g", "f", "e", "d", "c", "b", "a"]
        collection = Collection()
        collection.insert_one({name: 1 for name in sorted(names)})
        projection = {name: 1 for name in names}
        assert list(collection.find_one({}, projection)) == ["_id"] + names
        assert list(collection.find_one({}, {**projection, "_id": 0})) \
            == names

    def test_projection_shares_nothing_with_the_document(self):
        collection = Collection()
        collection.insert_one({"rows": [[1, 2]], "meta": {"k": [3]}})
        stored = next(collection.scan())
        for projection in ({"rows": 1, "meta.k": 1}, {"meta": 0}, {}):
            projected = apply_projection(stored, projection)
            assert projected["_id"] == stored["_id"]
            assert projected["_id"] is not stored["_id"]
            projected["rows"][0].append("scribbled")
            projected.get("meta", {}).get("k", []).append("scribbled")
        assert stored["rows"] == [[1, 2]] and stored["meta"] == {"k": [3]}

    def test_count_and_len(self, papers):
        assert papers.count() == 4
        assert papers.count({"year": 2020}) == 2
        assert len(papers) == 4

    def test_distinct(self, papers):
        assert set(papers.distinct("year")) == {2020, 2021}
        assert set(papers.distinct("tags")) == {"ppe", "mrna", "delta"}


class TestUpdate:
    def test_set_and_unset(self, papers):
        papers.update_one({"title": "masks"},
                          {"$set": {"reviewed": True},
                           "$unset": {"tags": ""}})
        doc = papers.find_one({"title": "masks"})
        assert doc["reviewed"] is True
        assert "tags" not in doc

    def test_inc_and_mul(self, papers):
        papers.update_one({"title": "masks"}, {"$inc": {"cites": 5}})
        papers.update_one({"title": "masks"}, {"$mul": {"cites": 2}})
        assert papers.find_one({"title": "masks"})["cites"] == 110

    def test_inc_creates_missing_field(self, papers):
        papers.update_one({"title": "masks"}, {"$inc": {"downloads": 3}})
        assert papers.find_one({"title": "masks"})["downloads"] == 3

    def test_min_max(self, papers):
        papers.update_one({"title": "masks"}, {"$min": {"cites": 10}})
        assert papers.find_one({"title": "masks"})["cites"] == 10
        papers.update_one({"title": "masks"}, {"$max": {"cites": 99}})
        assert papers.find_one({"title": "masks"})["cites"] == 99

    def test_push_and_each(self, papers):
        papers.update_one({"title": "masks"}, {"$push": {"tags": "new"}})
        papers.update_one({"title": "masks"},
                          {"$push": {"tags": {"$each": ["a", "b"]}}})
        assert papers.find_one({"title": "masks"})["tags"] == [
            "ppe", "new", "a", "b",
        ]

    def test_add_to_set(self, papers):
        papers.update_one({"title": "masks"}, {"$addToSet": {"tags": "ppe"}})
        assert papers.find_one({"title": "masks"})["tags"] == ["ppe"]

    def test_pull(self, papers):
        papers.update_one({"title": "variants"}, {"$pull": {"tags": "mrna"}})
        assert papers.find_one({"title": "variants"})["tags"] == ["delta"]

    def test_pop(self, papers):
        papers.update_one({"title": "variants"}, {"$pop": {"tags": 1}})
        assert papers.find_one({"title": "variants"})["tags"] == ["mrna"]

    def test_rename(self, papers):
        papers.update_one({"title": "masks"}, {"$rename": {"cites": "c"}})
        doc = papers.find_one({"title": "masks"})
        assert doc["c"] == 50 and "cites" not in doc

    def test_update_many(self, papers):
        modified = papers.update_many({"year": 2021},
                                      {"$set": {"recent": True}})
        assert modified == 2
        assert papers.count({"recent": True}) == 2

    def test_update_rejects_plain_document(self, papers):
        with pytest.raises(DocumentError):
            papers.update_one({"title": "masks"}, {"title": "replaced"})

    def test_update_rejects_id_change(self, papers):
        with pytest.raises(DocumentError):
            papers.update_one({"title": "masks"}, {"$set": {"_id": "x"}})

    def test_replace_one(self, papers):
        papers.replace_one({"title": "masks"}, {"title": "replaced"})
        assert papers.find_one({"title": "replaced"}) is not None
        assert papers.find_one({"title": "masks"}) is None


class TestDelete:
    def test_delete_one(self, papers):
        assert papers.delete_one({"year": 2020}) == 1
        assert papers.count({"year": 2020}) == 1

    def test_delete_many(self, papers):
        assert papers.delete_many({"year": 2021}) == 2
        assert papers.count() == 2

    def test_delete_nothing(self, papers):
        assert papers.delete_many({"year": 1900}) == 0


class TestIndexes:
    def test_index_accelerates_equality(self, papers):
        papers.create_index("year")
        papers.scan_count = 0
        papers.find({"year": 2021}).to_list()
        assert papers.scan_count == 2  # only the indexed bucket was scanned

    def test_count_scans_like_find_and_copies_nothing(self, papers,
                                                      monkeypatch):
        papers.create_index("year")
        for query, examined in (({"year": 2021}, 2),
                                ({"cites": {"$gt": 60}}, 4)):
            papers.scan_count = 0
            matched = len(papers.find(query))
            assert papers.scan_count == examined
            with monkeypatch.context() as patched:
                patched.setattr(collection_module, "deep_copy_document",
                                lambda document: pytest.fail("copied"))
                assert papers.count(query) == matched
            assert papers.scan_count == 2 * examined

    def test_scan_yields_the_stored_rows_find_copies_them(self, papers):
        rows = list(papers.scan({"year": 2020}))
        copies = papers.find({"year": 2020}).to_list()
        assert rows == copies
        assert all(row is papers._documents[row["_id"]] for row in rows)
        assert not any(copy is row for copy, row in zip(copies, rows))

    def test_unindexed_query_scans_everything(self, papers):
        papers.scan_count = 0
        papers.find({"cites": {"$gt": 0}}).to_list()
        assert papers.scan_count == 4

    def test_index_stays_consistent_after_update(self, papers):
        papers.create_index("year")
        papers.update_one({"title": "masks"}, {"$set": {"year": 2022}})
        assert {d["title"] for d in papers.find({"year": 2022})} == {"masks"}
        assert papers.count({"year": 2020}) == 1

    def test_index_stays_consistent_after_delete(self, papers):
        papers.create_index("year")
        papers.delete_many({"year": 2020})
        assert papers.count({"year": 2020}) == 0

    def test_unique_index_rejects_duplicates(self):
        collection = Collection()
        collection.create_index("doi", unique=True)
        collection.insert_one({"doi": "10.1/a"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"doi": "10.1/a"})
        # Failed insert must not leave ghosts behind.
        assert collection.count() == 1

    def test_multikey_index_over_arrays(self, papers):
        papers.create_index("tags")
        papers.scan_count = 0
        results = papers.find({"tags": "mrna"}).to_list()
        assert len(results) == 2
        assert papers.scan_count == 2


class TestStorage:
    def test_storage_bytes_grows_with_documents(self):
        collection = Collection()
        empty = collection.storage_bytes()
        collection.insert_one({"body": "x" * 1000})
        assert collection.storage_bytes() > empty + 900


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
def test_sort_matches_python_sorted(values):
    collection = Collection()
    collection.insert_many([{"v": value} for value in values])
    result = [d["v"] for d in collection.find().sort("v")]
    assert result == sorted(values)


@given(st.lists(st.integers(0, 10), min_size=1, max_size=30),
       st.integers(0, 10))
def test_delete_many_removes_exactly_matching(values, target):
    collection = Collection()
    collection.insert_many([{"v": value} for value in values])
    deleted = collection.delete_many({"v": target})
    assert deleted == values.count(target)
    assert collection.count() == len(values) - deleted
