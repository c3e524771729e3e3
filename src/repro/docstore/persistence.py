"""Storage accounting.

Serialized bytes and their per-shard distribution back the E11
experiment, which scales the paper's "450k publications ≈ 965 GB" claim
down to the synthetic corpus and extrapolates bytes/document.  JSONL
persistence of the store is :func:`repro.api.persistence.save_system`'s
``publications.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.docstore.collection import Collection
from repro.docstore.sharding import ShardedCollection


@dataclass
class StorageReport:
    """Storage accounting for a (sharded) collection — the E11 statistic."""

    num_documents: int
    total_bytes: int
    shard_bytes: list[int]

    @property
    def bytes_per_document(self) -> float:
        if self.num_documents == 0:
            return 0.0
        return self.total_bytes / self.num_documents

    @property
    def shard_skew(self) -> float:
        """max/mean shard size ratio; 1.0 is perfectly balanced."""
        if not self.shard_bytes or sum(self.shard_bytes) == 0:
            return 1.0
        mean = sum(self.shard_bytes) / len(self.shard_bytes)
        return max(self.shard_bytes) / mean

    def extrapolate_bytes(self, num_documents: int) -> int:
        """Projected storage at ``num_documents`` (e.g. the paper's 450k)."""
        return int(self.bytes_per_document * num_documents)


def storage_report(collection: Collection | ShardedCollection
                   ) -> StorageReport:
    """Compute a :class:`StorageReport` for any collection flavour."""
    if isinstance(collection, ShardedCollection):
        shard_bytes = collection.shard_storage_bytes()
        return StorageReport(
            num_documents=len(collection),
            total_bytes=sum(shard_bytes),
            shard_bytes=shard_bytes,
        )
    total = collection.storage_bytes()
    return StorageReport(
        num_documents=len(collection),
        total_bytes=total,
        shard_bytes=[total],
    )
