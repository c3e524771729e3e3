"""Tests for the insert-only Collection: inserts, reads, and indexes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.docstore import collection as collection_module
from repro.docstore.aggregation import aggregate
from repro.docstore.collection import Collection, apply_projection
from repro.docstore.documents import ObjectId
from repro.errors import DuplicateKeyError


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
        assert collection.find_one({"_id": doc_id})["x"] == 1

    def test_insert_respects_explicit_id(self):
        collection = Collection()
        collection.insert_one({"_id": "custom", "x": 1})
        assert collection.find_one({"_id": "custom"})["x"] == 1

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
        assert collection.find_one({"_id": doc_id})["nested"]["v"] == 1

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

    # Ordering and paging are pipeline stages over the collection.

    def test_sort_ascending_and_descending(self, papers):
        asc = [d["cites"]
               for d in aggregate(papers, [{"$sort": {"cites": 1}}])]
        desc = [d["cites"]
                for d in aggregate(papers, [{"$sort": {"cites": -1}}])]
        assert asc == sorted(asc)
        assert desc == sorted(desc, reverse=True)

    def test_multi_key_sort(self, papers):
        results = aggregate(papers, [{"$sort": {"year": 1, "cites": -1}}])
        assert [(d["year"], d["cites"]) for d in results] == [
            (2020, 50), (2020, 10), (2021, 120), (2021, 80),
        ]

    def test_skip_limit(self, papers):
        page = aggregate(papers, [{"$sort": {"cites": 1}}, {"$skip": 1},
                                  {"$limit": 2}])
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

    def test_find_one_copies_only_the_row_it_returns(self, monkeypatch):
        collection = Collection()
        collection.insert_many([{"group": 1, "n": n} for n in range(50)])
        copies = []

        def counting_copy(document):
            copies.append(document["n"])
            return dict(document)

        monkeypatch.setattr(collection_module, "deep_copy_document",
                            counting_copy)
        collection.scan_count = 0
        assert collection.find_one({"group": 1})["n"] == 0
        assert copies == [0]
        assert collection.scan_count == 1  # stopped at the first match
        assert collection.find_one({"group": 2}) is None
        assert copies == [0]

    def test_find_one_projection_shares_nothing_with_the_row(self, papers):
        doc = papers.find_one({"title": "variants"}, {"tags": 1, "_id": 0})
        doc["tags"].append("mutated")
        assert papers.find_one({"title": "variants"})["tags"] == [
            "mrna", "delta"]

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

    def test_cheapest_index_wins(self):
        collection = Collection()
        collection.insert_many([
            {"year": 2015 + i % 8, "journal": f"J{i % 3}"}
            for i in range(80)
        ])
        collection.create_index("journal")
        collection.create_index("year")
        # Equality on year narrows to 10 candidates; journal to ~27.
        collection.scan_count = 0
        collection.find({"journal": "J1", "year": {"$eq": 2020}}).to_list()
        assert collection.scan_count == 10

    def test_unique_index_rejects_duplicates(self):
        collection = Collection()
        collection.create_index("doi", unique=True)
        collection.insert_one({"doi": "10.1/a"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"doi": "10.1/a"})
        # Failed insert must not leave ghosts behind.
        assert collection.count() == 1

    def test_failed_unique_insert_leaves_no_ghost_in_earlier_index(self):
        collection = Collection()
        collection.create_index("doi", unique=True)
        collection.create_index("pmid", unique=True)
        collection.insert_one({"doi": "10.1/a", "pmid": 1})
        # Passes the doi index, then fails on pmid: the doi entry it
        # added must be rolled back ...
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"doi": "10.1/b", "pmid": 1})
        # ... so a later insert reusing that doi succeeds.
        collection.insert_one({"doi": "10.1/b", "pmid": 2})
        assert collection.count({"doi": "10.1/b"}) == 1
        assert collection.count() == 2

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


_MIXED = st.one_of(st.none(), st.booleans(), st.integers(-100, 100),
                   st.floats(-100, 100, allow_nan=False),
                   st.text(max_size=3))


def _type_rank(value):
    if value is None:
        return (0, 0)
    if isinstance(value, (bool, int, float)):
        return (1, value)
    return (2, value)


@given(st.lists(_MIXED, min_size=1, max_size=30))
def test_sort_matches_python_sorted(values):
    """``$sort`` orders mixed types None < numbers < strings, stably."""
    collection = Collection()
    collection.insert_many([{"v": value} for value in values])
    result = [d["v"] for d in aggregate(collection, [{"$sort": {"v": 1}}])]
    assert result == sorted(values, key=_type_rank)
