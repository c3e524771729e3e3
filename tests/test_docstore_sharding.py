"""Tests for hash sharding and the sharded collection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.docstore.sharding import HashSharder, ShardedCollection
from repro.errors import ShardingError


class TestHashSharder:
    def test_deterministic(self):
        sharder = HashSharder(8)
        assert sharder.shard_for("abc") == sharder.shard_for("abc")

    def test_in_range(self):
        sharder = HashSharder(5)
        for value in ["a", "b", 1, 2.5, None, ["x"]]:
            assert 0 <= sharder.shard_for(value) < 5

    def test_rejects_zero_shards(self):
        with pytest.raises(ShardingError):
            HashSharder(0)

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=50,
                    max_size=200, unique=True))
    def test_distribution_is_not_degenerate(self, keys):
        sharder = HashSharder(4)
        shards = {sharder.shard_for(key) for key in keys}
        assert len(shards) >= 2  # 50+ distinct keys never land on one shard


@pytest.fixture()
def sharded():
    coll = ShardedCollection("papers", shard_key="paper_id", num_shards=4)
    coll.insert_many([
        {"paper_id": f"p{i}", "year": 2020 + (i % 2), "cites": i}
        for i in range(40)
    ])
    return coll


class TestShardedCollection:
    def test_all_documents_stored(self, sharded):
        assert len(sharded) == 40
        assert sum(sharded.shard_sizes()) == 40

    def test_documents_spread_across_shards(self, sharded):
        assert sum(1 for size in sharded.shard_sizes() if size > 0) >= 2

    def test_missing_shard_key_rejected(self, sharded):
        with pytest.raises(ShardingError):
            sharded.insert_one({"year": 2021})

    def test_targeted_find_hits_one_shard(self, sharded):
        for shard in sharded.shards:
            shard.scan_count = 0
        result = sharded.find({"paper_id": "p7"}).to_list()
        assert len(result) == 1
        scanned_shards = [s for s in sharded.shards if s.scan_count > 0]
        assert len(scanned_shards) == 1

    def test_scatter_gather_find(self, sharded):
        assert len(sharded.find({"year": 2021})) == 20

    def test_count_and_find_one(self, sharded):
        assert sharded.count({"year": 2020}) == 20
        assert sharded.find_one({"paper_id": "p3"})["cites"] == 3
        assert sharded.find_one({"paper_id": "nope"}) is None

    def test_unique_index_must_include_shard_key(self, sharded):
        with pytest.raises(ShardingError):
            sharded.create_index("doi", unique=True)
        sharded.create_index("paper_id", unique=True)

    def test_create_index_reaches_every_shard(self, sharded):
        sharded.create_index("year")
        for shard in sharded.shards:
            shard.scan_count = 0
        sharded.find({"year": 2021}).to_list()
        total_scans = sum(s.scan_count for s in sharded.shards)
        assert total_scans == 20  # index used: only matching docs examined

    def test_storage_accounting(self, sharded):
        shard_bytes = sharded.shard_storage_bytes()
        assert len(shard_bytes) == 4
        assert sharded.storage_bytes() == sum(shard_bytes)


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=60,
                unique=True))
def test_every_document_routed_to_exactly_one_shard(keys):
    coll = ShardedCollection("t", shard_key="k", num_shards=3)
    coll.insert_many([{"k": key} for key in keys])
    assert sum(coll.shard_sizes()) == len(keys)
    for key in keys:
        owners = [
            shard for shard in coll.shards
            if shard.count({"k": key}) == 1
        ]
        assert len(owners) == 1
