"""The online ingest engine: apply + WAL + snapshots.

``IngestEngine`` wraps a built :class:`~repro.api.system.CovidKG` and
makes document batches durable and revertible while the system keeps
serving queries.  Under the data write lock:

1. the batch is **applied** in memory by ``system.ingest``, the one
   rule for what a batch may add: it takes the whole batch (quality
   gate, no paper stored twice) or raises a typed
   :class:`~repro.errors.IngestRejectedError` with per-document
   diagnostics and changes nothing, in which case nothing is logged or
   restored either;
2. then every document is framed into the **write-ahead log** and the
   ``commit`` record is fsynced, and only then is the batch
   acknowledged — a crash at any point before that fsync replays to the
   previous committed batch, and any failure but a refusal restores
   the latest snapshot so memory matches the log;
3. a named **snapshot** (``batch-NNNNNN``) is retained per committed
   batch; :meth:`rollback` restores docstore + indexes + KG atomically
   and logs the rollback so crash replay lands on the rolled-back
   state.

The engine starts no thread and holds no lock of its own: every
commit, rollback, replay, checkpoint and merge runs on its caller's
thread under the data lock, so concurrent ``commit_batch`` calls queue
on the write side and WAL appends only happen inside it.  The search
corpus's columnar delta tier needs no merge to stay shallow
(``ColumnarIndex.extend`` folds it geometrically: at most
⌊log2(delta rows)⌋ + 1 deltas); :meth:`merge_now` is the explicit
compaction, under the *read* side of the data lock so queries keep
flowing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import IngestRejectedError
from repro.ingest.snapshots import (
    Snapshot,
    SnapshotStore,
    restore_snapshot,
    take_snapshot,
)
from repro.ingest.wal import WriteAheadLog
from repro.serve.admission import ReadWriteLock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.system import CovidKG


@dataclass
class IngestReceipt:
    """The acknowledgement a committed batch returns to the caller."""

    batch_id: str
    seq: int
    snapshot: str
    accepted: int
    subtrees: int
    seconds: float
    versions: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "batch_id": self.batch_id,
            "seq": self.seq,
            "snapshot": self.snapshot,
            "accepted": self.accepted,
            "subtrees": self.subtrees,
            "seconds": self.seconds,
            "versions": dict(self.versions),
        }


class IngestEngine:
    """Durable, revertible streaming ingest over one ``CovidKG``."""

    def __init__(self, system: "CovidKG", directory: str | Path, *,
                 data_lock: ReadWriteLock | None = None) -> None:
        self.system = system
        self.directory = Path(directory)
        self.wal = WriteAheadLog(self.directory / "wal")
        self._data_lock = data_lock or ReadWriteLock()
        self._ids = itertools.count(1)
        self._start_timeline()

    def _start_timeline(self) -> None:
        """Seq 0 and one restore point, ``base``, at the current state:
        what a restart from here would build (see :meth:`checkpoint`)."""
        self._seq = 0
        self.snapshots = SnapshotStore()
        self.snapshots.add(take_snapshot(self.system, "base", 0))

    # -- lock plumbing ----------------------------------------------------

    def use_lock(self, data_lock: ReadWriteLock) -> None:
        """Adopt the serving tier's reader/writer lock.

        Call before serving starts (``QueryService.attach_ingest`` does)
        so commits exclude queries and merges share with them.
        """
        self._data_lock = data_lock

    # -- commit path ------------------------------------------------------

    def commit_batch(self, papers: list[Any], *,
                     batch_id: str | None = None,
                     skip_duplicates: bool = False) -> IngestReceipt:
        """Apply, log, fsync, snapshot — one committed batch.

        A ``skip_duplicates`` batch whose every paper is already stored
        lands nothing and commits nothing: no WAL frames, no snapshot,
        no new seq.  Its receipt names the current seq and latest
        snapshot, with ``accepted`` 0.
        """
        started = time.perf_counter()
        if not papers:
            raise IngestRejectedError("batch is empty")
        with self._data_lock.write_locked():
            try:
                report = self.system.ingest(
                    papers, skip_duplicates=skip_duplicates)
                if batch_id is None:
                    batch_id = f"ingest-{next(self._ids):06d}"
                if report.papers:
                    self.wal.begin_batch(batch_id)
                    for paper in papers:
                        self.wal.append_document(batch_id, paper)
                    # The durability point: the commit frame is fsynced
                    # after the apply succeeded, before acknowledging.
                    self.wal.commit_batch(batch_id, len(papers),
                                          skip_duplicates=skip_duplicates)
            except IngestRejectedError:
                raise  # refused whole: nothing applied, nothing logged
            except BaseException:
                # Memory may hold part of a batch the WAL never
                # committed — put it back in step before re-raising.
                restore_snapshot(self.system, self.snapshots.latest())
                raise
            if report.papers:
                self._seq += 1
                self.snapshots.add(take_snapshot(
                    self.system, f"batch-{self._seq:06d}", self._seq))
            seq = self._seq
            snapshot = self.snapshots.latest()
            # Capture the receipt's view of the world while the write
            # lock still excludes other commits — outside it, seq and
            # the version counters could describe a *later* batch.
            versions = self.system.versions()
        return IngestReceipt(
            batch_id=batch_id,
            seq=seq,
            snapshot=snapshot.name,
            accepted=report.papers,
            subtrees=report.subtrees,
            seconds=time.perf_counter() - started,
            versions=versions,
        )

    # -- rollback ---------------------------------------------------------

    def rollback(self, to: str) -> Snapshot:
        """Atomically restore the named snapshot; later batches vanish.

        The rollback itself is WAL-logged (and fsynced), so a crash
        after it replays to the rolled-back state, not past it.
        Snapshots newer than the target are dropped — their state no
        longer exists on any timeline.
        """
        snapshot = self.snapshots.get(to)
        with self._data_lock.write_locked():
            restore_snapshot(self.system, snapshot)
            self.wal.log_rollback(snapshot.seq)
            self._seq = snapshot.seq
            self.snapshots.drop_after(snapshot.seq)
        return snapshot

    # -- crash recovery ---------------------------------------------------

    def replay(self) -> int:
        """Re-apply every committed batch in the WAL to the system.

        Call once, on a freshly constructed engine whose system is the
        pre-crash base (a new build, or ``load_system`` of the last
        checkpoint).  Batches without a commit record — the crash tail —
        are skipped entirely; logged rollbacks are honoured.  Returns
        the number of batches applied.

        ``repro-covidkg gateway`` calls it before it binds its socket,
        so no client — and no cluster router — ever reaches a replica
        that is still replaying.
        """
        state = self.wal.replay()
        applied = 0
        with self._data_lock.write_locked():
            for batch in state.batches:
                self.system.ingest(
                    batch.papers, skip_duplicates=batch.skip_duplicates)
                self._seq += 1
                self.snapshots.add(take_snapshot(
                    self.system, f"batch-{self._seq:06d}", self._seq))
                applied += 1
            if applied:
                # New batch ids continue past the replayed ones so one
                # WAL never carries two batches with the same id.
                self._ids = itertools.count(self._seq + 1)
        return applied

    def checkpoint(self, directory: str | Path) -> Path:
        """Persist the system and truncate the now-redundant WAL.

        Save and truncate happen under the data *write* lock: a commit
        interleaving between them would be acknowledged yet present in
        neither the checkpoint nor the WAL (lost on restart), and
        truncation must not unlink a segment a concurrent commit is
        appending to.  The engine then starts a new timeline at the
        checkpointed state, seq 0 with one restore point (``base``), as a
        restart from the checkpoint would: the emptied WAL holds none of
        the older batches a rollback could name.
        """
        from repro.api.persistence import save_system

        with self._data_lock.write_locked():
            saved = save_system(self.system, directory)
            self.wal.truncate()
            self._start_timeline()
        return saved

    # -- explicit merge ---------------------------------------------------

    def merge_now(self) -> int:
        """Fold the search corpus's delta segments into its base postings.

        Runs under the *read* side of the data lock: queries proceed
        concurrently (the merged index is byte-identical, so either
        generation answers them correctly); only writers wait.
        Returns the number of indexes that actually merged (0 or 1).
        """
        with self._data_lock.read_locked():
            return int(self.system.search_corpus.merge_segments())

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "seq": self._seq,
            "snapshots": self.snapshots.names(),
            "wal_segments": len(self.wal.segment_paths()),
            # One shared corpus: the three engines carry the same debt.
            "delta_rows": dict.fromkeys(
                ("all_fields", "title_abstract", "table"),
                self.system.search_corpus.delta_rows),
            "delta_segments": self.system.search_corpus.delta_segments,
        }

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "IngestEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
