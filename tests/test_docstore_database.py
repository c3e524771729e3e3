"""Tests for the Client/Database facade."""

import pytest

from repro.docstore.database import Client, Database
from repro.docstore.functions import FunctionRegistry
from repro.errors import ShardingError


class TestDatabase:
    def test_collection_is_memoized(self):
        db = Database("kg")
        assert db.collection("papers") is db.collection("papers")

    def test_sharded_collection_is_memoized(self):
        db = Database("kg")
        first = db.sharded_collection("papers", shard_key="pid")
        assert db.sharded_collection("papers", shard_key="pid") is first

    def test_flavor_mismatch_raises(self):
        db = Database("kg")
        db.collection("plain")
        with pytest.raises(ShardingError):
            db.sharded_collection("plain", shard_key="pid")
        db.sharded_collection("sharded", shard_key="pid")
        with pytest.raises(ShardingError):
            db.collection("sharded")

    def test_drop_collection(self):
        db = Database("kg")
        db.collection("tmp").insert_one({"x": 1})
        db.drop_collection("tmp")
        assert db.collection("tmp").count() == 0

    def test_aggregate_plain_collection(self):
        db = Database("kg")
        db.collection("nums").insert_many([{"v": i} for i in range(10)])
        result = db.aggregate("nums", [
            {"$match": {"v": {"$gte": 5}}},
            {"$count": "n"},
        ])
        assert result.documents == [{"n": 5}]

    def test_aggregate_sharded_collection_with_leading_match(self):
        db = Database("kg")
        coll = db.sharded_collection("papers", shard_key="pid", num_shards=3)
        coll.insert_many([{"pid": i, "year": 2020 + i % 2}
                          for i in range(20)])
        result = db.aggregate("papers", [
            {"$match": {"year": 2021}},
            {"$count": "n"},
        ])
        assert result.documents == [{"n": 10}]

    def test_registry_shared_with_pipelines(self):
        registry = FunctionRegistry()
        registry.register("twice", lambda v: v * 2)
        db = Database("kg", registry)
        db.collection("nums").insert_many([{"v": 3}])
        result = db.aggregate("nums", [
            {"$function": {"name": "twice", "args": ["$v"], "as": "w"}},
        ])
        assert result.documents[0]["w"] == 6

    def test_storage_bytes_sums_collections(self):
        db = Database("kg")
        db.collection("a").insert_one({"pad": "x" * 100})
        db.sharded_collection("b", shard_key="k").insert_one(
            {"k": 1, "pad": "y" * 100}
        )
        assert db.storage_bytes() > 200


class TestClient:
    def test_databases_are_memoized(self):
        client = Client()
        assert client.database("kg") is client["kg"]

    def test_database_names(self):
        client = Client()
        client["a"], client["b"]
        assert client.database_names() == ["a", "b"]

    def test_drop_database(self):
        client = Client()
        client["kg"].collection("papers").insert_one({"x": 1})
        client.drop_database("kg")
        assert client["kg"].collection("papers").count() == 0


class TestShardedGroupMerge:
    """Two-phase (mongos-style) aggregation for mergeable $group specs."""

    def build(self, num_docs=60, num_shards=4):
        db = Database("kg")
        coll = db.sharded_collection("papers", shard_key="pid",
                                     num_shards=num_shards)
        docs = [
            {"pid": i, "year": 2019 + i % 3, "cites": i % 7,
             "tag": f"t{i % 2}"}
            for i in range(num_docs)
        ]
        coll.insert_many(docs)
        return db, docs

    def reference(self, docs, stages):
        from repro.docstore.aggregation import aggregate
        return aggregate(docs, stages)

    def canonical(self, documents):
        import json
        return sorted(
            json.dumps(doc, sort_keys=True, default=str)
            for doc in documents
        )

    def test_mergeable_group_matches_unsharded(self):
        db, docs = self.build()
        stages = [
            {"$group": {"_id": "$year",
                        "total": {"$sum": "$cites"},
                        "n": {"$count": {}},
                        "lo": {"$min": "$cites"},
                        "hi": {"$max": "$cites"}}},
        ]
        sharded = db.aggregate("papers", stages)
        reference = self.reference(docs, stages)
        assert self.canonical(sharded.documents) == self.canonical(
            reference.documents
        )

    def test_push_and_add_to_set_merge(self):
        db, docs = self.build(num_docs=20)
        stages = [{"$group": {"_id": "$tag",
                              "years": {"$addToSet": "$year"},
                              "all": {"$push": "$cites"}}}]
        sharded = db.aggregate("papers", stages).documents
        reference = self.reference(docs, stages).documents
        by_id = {doc["_id"]: doc for doc in sharded}
        for ref in reference:
            got = by_id[ref["_id"]]
            assert sorted(got["years"]) == sorted(ref["years"])
            assert sorted(got["all"]) == sorted(ref["all"])

    def test_match_then_group(self):
        db, docs = self.build()
        stages = [
            {"$match": {"year": {"$gte": 2020}}},
            {"$group": {"_id": "$year", "n": {"$count": {}}}},
            {"$sort": {"_id": 1}},
        ]
        sharded = db.aggregate("papers", stages)
        reference = self.reference(docs, stages)
        assert sharded.documents == reference.documents

    def test_leading_match_copies_each_document_once(self, monkeypatch):
        """The pushdown gathers stored rows; ``run`` makes the one copy."""
        from repro.docstore import aggregation, collection

        db, docs = self.build(num_docs=30)
        coll = db.sharded_collection("papers", shard_key="pid")
        stored = [row for shard in coll.shards for row in shard.scan()]
        snapshot = self.canonical(stored)
        match = {"$match": {"year": {"$gte": 2020}}}
        matched = sum(doc["year"] >= 2020 for doc in docs)
        for rest in ([{"$addFields": {"tags": {"$literal": ["x"]}}},
                      {"$project": {"_id": 0, "pid": "$pid",
                                    "tags": "$tags"}}],
                     [{"$group": {"_id": "$year",
                                  "cites": {"$sum": "$cites"}}}]):
            copied = []
            real_copy = aggregation.deep_copy_document
            with monkeypatch.context() as patched:
                patched.setattr(
                    collection, "deep_copy_document",
                    lambda document: pytest.fail("find copied a row"))
                patched.setattr(
                    aggregation, "deep_copy_document",
                    lambda doc: copied.append(doc) or real_copy(doc))
                scanned = coll.total_scan_count
                result = db.aggregate("papers", [match] + rest)
            assert coll.total_scan_count - scanned == len(docs)
            assert self.canonical(result.documents) == self.canonical(
                self.reference(docs, [match] + rest).documents)
            assert sum(any(doc is row for row in stored)
                       for doc in copied) == matched
            # Nothing in the result is stored state.
            for document in result.documents:
                for value in document.values():
                    if isinstance(value, list):
                        value.append("scribbled")
                document.clear()
            assert self.canonical(
                row for shard in coll.shards for row in shard.scan()
            ) == snapshot

    def test_avg_falls_back_but_stays_correct(self):
        db, docs = self.build()
        stages = [{"$group": {"_id": "$year",
                              "mean": {"$avg": "$cites"}}},
                  {"$sort": {"_id": 1}}]
        sharded = db.aggregate("papers", stages)
        reference = self.reference(docs, stages)
        assert sharded.documents == reference.documents

    def test_post_group_stages_apply(self):
        db, docs = self.build()
        stages = [
            {"$group": {"_id": "$year", "n": {"$count": {}}}},
            {"$sort": {"n": -1, "_id": 1}},
            {"$limit": 1},
        ]
        sharded = db.aggregate("papers", stages)
        reference = self.reference(docs, stages)
        assert sharded.documents == reference.documents


class TestRegistryIsolation:
    """Each Database owns a registry seeded from the defaults, so
    ``$function`` registrations cannot leak across systems."""

    def test_databases_do_not_share_registrations(self):
        db_a = Database("a")
        db_b = Database("b")
        db_a.registry.register("only_in_a", lambda doc: 1)
        assert "only_in_a" in db_a.registry
        assert "only_in_a" not in db_b.registry

    def test_default_registry_seeds_new_databases(self):
        from repro.docstore.functions import default_registry

        default_registry.register("seeded_fn", lambda doc: 42)
        try:
            db = Database("seeded")
            assert "seeded_fn" in db.registry
            # ... but it is a copy: later global additions don't appear.
            default_registry.register("late_fn", lambda doc: 0)
            try:
                assert "late_fn" not in db.registry
            finally:
                default_registry.unregister("late_fn")
        finally:
            default_registry.unregister("seeded_fn")

    def test_explicit_registry_still_honoured(self):
        shared = FunctionRegistry()
        db_a = Database("a", registry=shared)
        db_b = Database("b", registry=shared)
        shared.register("shared_fn", lambda doc: 1)
        assert "shared_fn" in db_a.registry
        assert "shared_fn" in db_b.registry

    def test_client_databases_share_one_registry(self):
        client = Client()
        db_a = client.database("a")
        db_b = client.database("b")
        db_a.registry.register("client_fn", lambda doc: 1)
        assert "client_fn" in db_b.registry
        assert "client_fn" not in Client().database("c").registry

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
