"""Tests for storage accounting (the E11 statistic)."""

from repro.docstore.collection import Collection
from repro.docstore.persistence import StorageReport, storage_report
from repro.docstore.sharding import ShardedCollection


class TestStorageReport:
    def test_report_for_plain_collection(self):
        collection = Collection()
        collection.insert_many([{"pad": "x" * 100} for _ in range(10)])
        report = storage_report(collection)
        assert report.num_documents == 10
        assert report.total_bytes > 1000
        assert report.bytes_per_document > 100

    def test_report_for_sharded_collection(self):
        coll = ShardedCollection("s", shard_key="k", num_shards=4)
        coll.insert_many([{"k": i, "pad": "x" * 50} for i in range(40)])
        report = storage_report(coll)
        assert len(report.shard_bytes) == 4
        assert report.total_bytes == sum(report.shard_bytes)
        assert report.shard_skew >= 1.0

    def test_extrapolation_scales_linearly(self):
        report = StorageReport(num_documents=100, total_bytes=200_000,
                               shard_bytes=[200_000])
        assert report.extrapolate_bytes(450_000) == 900_000_000

    def test_empty_report(self):
        report = storage_report(Collection())
        assert report.bytes_per_document == 0.0
        assert report.shard_skew == 1.0
