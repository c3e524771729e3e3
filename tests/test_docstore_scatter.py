"""Differential tests: ``ShardedCollection`` vs. one plain ``Collection``.

The oracle is a single unsharded ``Collection`` holding the same
documents: at 1, 4 and 8 shards every multi-shard operation must give
the answer the oracle gives.  Where the oracle's order is insertion
order and the store's is shard order (``find``), the comparison is on
the multiset and the shard-order concatenation is asserted separately.
"""

import threading

import pytest

from repro.docstore import aggregation
from repro.docstore.aggregation import AggregationPipeline, StageStats
from repro.docstore.collection import Collection
from repro.docstore.sharding import ShardedCollection, _merge_stage_stats
from repro.errors import QueryError, ShardingError

SHARD_COUNTS = (1, 4, 8)


def documents():
    return [
        {"paper_id": f"p{i:03d}", "year": 2019 + (i % 4),
         "cites": (i * 7) % 23, "group": i % 3}
        for i in range(80)
    ]


def build_oracle():
    oracle = Collection("papers")
    oracle.create_index("year")
    oracle.insert_many(documents())
    return oracle


def build_store(num_shards):
    store = ShardedCollection("papers", shard_key="paper_id",
                              num_shards=num_shards)
    store.create_index("year")
    store.insert_many(documents())
    return store


def scrub(value):
    """Drop ``_id`` (a process-global counter differing between builds)."""
    if isinstance(value, dict):
        return {key: scrub(item) for key, item in value.items()
                if key != "_id"}
    if isinstance(value, (list, tuple)):
        return type(value)(scrub(item) for item in value)
    return value


def by_id(docs):
    return sorted(docs, key=lambda doc: doc["paper_id"])


def differential(operation):
    """``operation`` on the oracle, then on a store per shard count."""
    expected = scrub(operation(build_oracle()))
    return expected, [scrub(operation(build_store(num_shards)))
                      for num_shards in SHARD_COUNTS]


def aggregate(target, stages):
    if isinstance(target, ShardedCollection):
        return target.aggregate(stages).documents
    return AggregationPipeline(stages).run(target).documents


class TestDifferentialReads:
    def test_find_identical(self):
        query = {"group": {"$in": [1, 2]}}
        expected, sharded = differential(
            lambda target: by_id(target.find(query).to_list())
        )
        assert len(expected) > 0
        assert sharded == [expected] * len(SHARD_COUNTS)

    def test_find_all_identical(self):
        expected, sharded = differential(
            lambda target: by_id(target.find().to_list())
        )
        assert len(expected) == 80
        assert sharded == [expected] * len(SHARD_COUNTS)

    @pytest.mark.parametrize("query", [None, {"group": {"$in": [1, 2]}}])
    def test_find_concatenates_in_shard_order(self, query):
        store = build_store(4)
        assert store.find(query).to_list() == [
            document for shard in store.shards
            for document in shard.find(query).to_list()
        ]

    def test_count_identical(self):
        expected, sharded = differential(
            lambda target: target.count({"group": 1})
        )
        assert expected > 0
        assert sharded == [expected] * len(SHARD_COUNTS)

    def test_find_one_targeted(self):
        expected, sharded = differential(
            lambda target: target.find_one({"paper_id": "p042"})
        )
        assert expected["paper_id"] == "p042"
        assert sharded == [expected] * len(SHARD_COUNTS)

    def test_find_one_scatter_returns_a_match(self):
        for num_shards in SHARD_COUNTS:
            store = build_store(num_shards)
            hit = store.find_one({"group": 2})
            assert hit is not None and hit["group"] == 2
            assert store.find_one({"year": 1900}) is None

    def test_find_one_untargeted_returns_lowest_shard_match(self):
        # The thread pool returned whichever shard finished first; the
        # loop asks the shards in order and stops at the first hit.
        store = build_store(8)
        query = {"group": 2}
        per_shard = [shard.find_one(query) for shard in store.shards]
        assert sum(hit is not None for hit in per_shard) >= 2
        lowest = next(hit for hit in per_shard if hit is not None)
        for _ in range(20):
            assert store.find_one(query) == lowest

    def test_aggregate_ranked_page_identical(self):
        # ``cites`` repeats (80 documents, 23 values): equal-score ties
        # fall to the ``paper_id`` key, so the page is a total order.
        stages = [
            {"$match": {"group": {"$in": [1, 2]}}},
            {"$project": {"paper_id": 1, "cites": 1, "year": 1}},
            {"$sort": {"cites": -1, "paper_id": 1}},
            {"$skip": 5},
            {"$limit": 10},
        ]
        expected, sharded = differential(
            lambda target: aggregate(target, stages)
        )
        assert len(expected) == 10
        assert len({doc["cites"] for doc in expected}) < len(expected)
        assert sharded == [expected] * len(SHARD_COUNTS)

    def test_aggregate_full_sort_identical(self):
        stages = [
            {"$match": {"group": {"$in": [0, 2]}}},
            {"$sort": {"cites": -1, "paper_id": 1}},
        ]
        expected, sharded = differential(
            lambda target: aggregate(target, stages)
        )
        assert sharded == [expected] * len(SHARD_COUNTS)


class TestShardFailureStopsTheLoop:
    """Shard *k* raising propagates; no shard after *k* is visited."""

    FAILING = 2

    def test_insert_many_leaves_later_shards_untouched(self, monkeypatch):
        store = ShardedCollection("t", shard_key="k", num_shards=4)
        batch = [{"k": f"key{i}"} for i in range(40)]
        routed = [0] * 4
        for document in batch:
            routed[store.sharder.shard_for(document["k"])] += 1
        assert all(routed)

        def boom(batch):
            raise RuntimeError("shard down")

        monkeypatch.setattr(store.shards[self.FAILING], "insert_many", boom)
        with pytest.raises(RuntimeError, match="shard down"):
            store.insert_many(batch)
        assert store.shard_sizes() == [
            routed[index] if index < self.FAILING else 0
            for index in range(4)
        ]


def test_key_in_reads_only_the_owning_shards_and_their_ids():
    """``paper_id`` ``$in``: the oracle's answer, from the shards that
    own an id and, there, from the index (the search engines' columnar
    prefilter takes this path)."""
    ids = ["p003", "p017", "p042", "p077"]
    query = {"paper_id": {"$in": ids}, "group": {"$in": [0, 1, 2]}}
    expected, sharded = differential(
        lambda target: by_id(aggregate(target, [{"$match": query}])))
    assert [doc["paper_id"] for doc in expected] == ids
    assert sharded == [expected] * len(SHARD_COUNTS)

    store = build_store(8)
    store.create_index("paper_id")
    owners = {store.sharder.shard_for(paper_id) for paper_id in ids}
    assert len(owners) < len(store.shards)
    result = store.aggregate([{"$match": query},
                              {"$project": {"paper_id": 1}}])
    assert result.stages[0].docs_in == len(ids)  # rows examined
    assert [shard.scan_count > 0 for shard in store.shards] == [
        number in owners for number in range(len(store.shards))]
    assert store.count({"paper_id": {"$in": []}}) == 0
    assert store.aggregate([{"$match": {"paper_id": {"$in": []}}}]
                           ).documents == []


def test_pipeline_compiles_each_match_once_when_built(monkeypatch):
    """One compile per ``$match`` stage whatever the shard count, and a
    malformed one fails when the pipeline is built."""
    compiled = []
    real_compile = aggregation.compile_filter
    monkeypatch.setattr(aggregation, "compile_filter",
                        lambda query: compiled.append(query)
                        or real_compile(query))
    store = build_store(8)
    store.aggregate([
        {"$match": {"group": {"$in": [1, 2]}}},
        {"$project": {"paper_id": 1, "cites": 1}},
        {"$match": {"cites": {"$in": list(range(4, 23))}}},
        {"$sort": {"cites": -1, "paper_id": 1}},
        {"$limit": 5},
    ])
    assert len(compiled) == 2
    with pytest.raises(QueryError):
        AggregationPipeline([{"$match": {"year": {"$bogus": 1}}}])


def test_sharded_operations_start_no_threads():
    before = set(threading.enumerate())
    store = build_store(8)
    store.find({"group": 1}).to_list()
    store.count({"group": 1})
    store.find_one({"group": 2})
    store.aggregate([{"$match": {"group": 1}},
                     {"$sort": {"cites": -1, "paper_id": 1}},
                     {"$limit": 5}])
    # no ``repro-shard`` pool worker, nor any other thread
    assert set(threading.enumerate()) == before


def test_merge_stage_stats_sums_counts_and_seconds():
    # The shards are visited one after another: a prefix stage costs the
    # sum of its shards' times, not the slowest shard's.
    per_shard = [
        [StageStats("$match(indexed)", 10, 4, 0.25),
         StageStats("$project", 4, 4, 0.5)],
        [StageStats("$match(indexed)", 30, 6, 1.0),
         StageStats("$project", 6, 6, 0.125)],
    ]
    merged = _merge_stage_stats(per_shard)
    assert [(s.stage, s.docs_in, s.docs_out, s.seconds) for s in merged] == [
        ("$match(indexed)", 40, 10, 1.25),
        ("$project", 10, 10, 0.625),
    ]
    assert _merge_stage_stats([]) == []


class TestInsertManyGrouping:
    def test_ids_in_batch_order(self):
        store = ShardedCollection("t", shard_key="k", num_shards=4)
        docs = [{"k": f"key{i}", "n": i} for i in range(20)]
        ids = store.insert_many(docs)
        assert len(ids) == 20
        for i, doc_id in enumerate(ids):
            found = store.find_one({"_id": doc_id})
            assert found["n"] == i

    def test_bulk_insert_per_shard(self, monkeypatch):
        # One Collection.insert_many call per touched shard, not one
        # routed insert per document.
        store = ShardedCollection("t", shard_key="k", num_shards=4)
        calls = []
        for shard in store.shards:
            original = shard.insert_many

            def counting(batch, _original=original, _name=shard.name):
                calls.append((_name, len(list(batch))))
                return _original(batch)

            monkeypatch.setattr(shard, "insert_many", counting)
        store.insert_many([{"k": f"key{i}"} for i in range(40)])
        assert len(calls) <= 4
        assert sum(count for _, count in calls) == 40

    def test_missing_shard_key_keeps_prior_inserts(self):
        store = ShardedCollection("t", shard_key="k", num_shards=4)
        batch = [{"k": "a"}, {"k": "b"}, {"wrong": 1}, {"k": "c"}]
        with pytest.raises(ShardingError):
            store.insert_many(batch)
        # Documents before the bad one landed; the ones after did not.
        assert store.count() == 2
        assert store.find_one({"k": "a"}) is not None
        assert store.find_one({"k": "b"}) is not None
        assert store.find_one({"k": "c"}) is None
