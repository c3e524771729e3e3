"""Zero-downtime streaming ingest: WAL, snapshots, quality gate, merge."""

from repro.ingest.engine import IngestEngine, IngestReceipt
from repro.ingest.quality_gate import gate_batch
from repro.ingest.snapshots import (
    Snapshot,
    SnapshotStore,
    restore_snapshot,
    take_snapshot,
)
from repro.ingest.wal import (
    DEFAULT_SEGMENT_BYTES,
    ReplayBatch,
    ReplayState,
    WriteAheadLog,
    encode_record,
    iter_frames,
    scan_segment,
)

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "IngestEngine",
    "IngestReceipt",
    "ReplayBatch",
    "ReplayState",
    "Snapshot",
    "SnapshotStore",
    "WriteAheadLog",
    "encode_record",
    "gate_batch",
    "iter_frames",
    "restore_snapshot",
    "scan_segment",
    "take_snapshot",
]
