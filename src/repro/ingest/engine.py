"""The online ingest engine: WAL + quality gate + snapshots + merge.

``IngestEngine`` wraps a built :class:`~repro.api.system.CovidKG` and
makes document batches durable and revertible while the system keeps
serving queries:

1. the batch passes the **quality gate** (all-or-nothing; typed
   :class:`~repro.errors.IngestRejectedError` with per-document
   diagnostics) — including a duplicate check against the live store,
   so the in-memory apply below can never fail halfway on a unique
   index;
2. under the data write lock, every document is framed into the
   **write-ahead log**, the batch is applied in memory
   (``system.ingest``), and only then is the ``commit`` record fsynced
   — a crash at any point before that fsync replays to the previous
   committed batch;
3. a named **snapshot** (``batch-NNNNNN``) is retained per committed
   batch; :meth:`rollback` restores docstore + indexes + KG atomically
   and logs the rollback so crash replay lands on the rolled-back
   state;
4. a **background merge thread** folds the search corpus's columnar
   delta segments back into its base postings once enough documents
   have streamed in — under the *read* side of the data lock, so
   queries keep flowing while the merge runs.

The engine serializes its own writers: concurrent ``commit_batch``
calls queue on the data write lock, and WAL appends only happen inside
it.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import IngestRejectedError
from repro.ingest.quality_gate import gate_batch
from repro.ingest.snapshots import (
    Snapshot,
    SnapshotStore,
    restore_snapshot,
    take_snapshot,
)
from repro.ingest.wal import DEFAULT_SEGMENT_BYTES, WriteAheadLog
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
                 merge_threshold: int = 256,
                 snapshot_retention: int = 8,
                 wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 data_lock: ReadWriteLock | None = None) -> None:
        self.system = system
        self.directory = Path(directory)
        self.wal = WriteAheadLog(self.directory / "wal",
                                 max_segment_bytes=wal_segment_bytes)
        self.snapshots = SnapshotStore(retention=snapshot_retention)
        self.merge_threshold = merge_threshold
        self._data_lock = data_lock or ReadWriteLock()
        self._seq = 0
        self._ids = itertools.count(1)
        self._state_lock = threading.Lock()
        self._docs_since_merge = 0
        self._merges = 0
        self._replaying = False
        self._replayed_batches = 0
        self._closed = False
        self._merge_wakeup = threading.Event()
        self._merge_thread: threading.Thread | None = None
        # The pre-ingest restore point: rollback("base") empties the
        # streamed corpus back to whatever the system started with.
        self.snapshots.add(take_snapshot(system, "base", 0))

    # -- lock plumbing ----------------------------------------------------

    def use_lock(self, data_lock: ReadWriteLock) -> None:
        """Adopt the serving tier's reader/writer lock.

        Call before serving starts (``QueryService.attach_ingest`` does)
        so commits exclude queries and merges share with them.
        """
        self._data_lock = data_lock

    # -- commit path ------------------------------------------------------

    def _preflight_duplicates(self,
                              papers: list[dict[str, Any]]) -> None:
        """Reject store-level duplicates before anything is logged.

        ``system.ingest`` inserts one document at a time; a unique-index
        violation halfway through would strand a partial batch in
        memory.  Checking up front keeps the apply step infallible on
        this axis (batch-*internal* duplicates were already gated).
        """
        rejects = []
        for index, paper in enumerate(papers):
            if self.system.store.find_one(
                    {"paper_id": paper["paper_id"]}) is not None:
                rejects.append({
                    "index": index, "paper_id": paper["paper_id"],
                    "error": "paper_id already ingested (set "
                             "skip_duplicates to ignore redeliveries)",
                })
        if rejects:
            raise IngestRejectedError(
                f"{len(rejects)} of {len(papers)} paper(s) already "
                "exist; nothing was ingested", rejects=rejects)

    def commit_batch(self, papers: list[Any], *,
                     batch_id: str | None = None,
                     skip_duplicates: bool = False) -> IngestReceipt:
        """Gate, log, apply, fsync, snapshot — one committed batch."""
        started = time.perf_counter()
        validated = gate_batch(papers)
        with self._data_lock.write_locked():
            if not skip_duplicates:
                self._preflight_duplicates(validated)
            if batch_id is None:
                batch_id = f"ingest-{next(self._ids):06d}"
            self.wal.begin_batch(batch_id)
            for paper in validated:
                self.wal.append_document(batch_id, paper)
            stored_before = len(self.system.store)
            try:
                report = self.system.ingest(
                    validated, skip_duplicates=skip_duplicates)
            except BaseException:
                # The batch is torn in the WAL (no commit record) —
                # put memory back in step with it before re-raising.
                latest = self.snapshots.latest()
                if latest is not None:
                    restore_snapshot(self.system, latest)
                raise
            # The durability point: fsync the commit frame *after* the
            # in-memory apply succeeded, *before* acknowledging.
            # ``accepted`` is what actually landed: under
            # skip_duplicates a redelivered paper is dropped by
            # ``system.ingest`` and must not be counted as new.
            accepted = len(self.system.store) - stored_before
            self.wal.commit_batch(batch_id, len(validated),
                                  skip_duplicates=skip_duplicates)
            self._seq += 1
            seq = self._seq
            snapshot = take_snapshot(
                self.system, f"batch-{seq:06d}", seq)
            self.snapshots.add(snapshot)
            # Capture the receipt's view of the world while the write
            # lock still excludes other commits — outside it, seq and
            # the version counters could describe a *later* batch.
            versions = self.system.versions()
        with self._state_lock:
            self._docs_since_merge += accepted
            merge_due = self._docs_since_merge >= self.merge_threshold
        if merge_due:
            self._request_merge()
        return IngestReceipt(
            batch_id=batch_id,
            seq=seq,
            snapshot=snapshot.name,
            accepted=accepted,
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
        """
        with self._state_lock:
            self._replaying = True
        state = self.wal.replay()
        applied = 0
        try:
            with self._data_lock.write_locked():
                for batch in state.batches:
                    self.system.ingest(
                        batch.papers,
                        skip_duplicates=batch.skip_duplicates)
                    self._seq += 1
                    self.snapshots.add(take_snapshot(
                        self.system, f"batch-{self._seq:06d}", self._seq))
                    applied += 1
                if applied:
                    # New batch ids continue past the replayed ones so
                    # one WAL never carries two batches with the same
                    # id.
                    self._ids = itertools.count(self._seq + 1)
        finally:
            with self._state_lock:
                self._replaying = False
                self._replayed_batches += applied
        return applied

    def replay_status(self) -> dict[str, Any]:
        """WAL recovery progress, as ``/v1/healthz`` reports it.

        A cluster router keeps a replica whose ``replaying`` is true out
        of the ring — it is still re-applying committed batches and
        would serve a stale corpus.
        """
        with self._state_lock:
            return {"replaying": self._replaying,
                    "replayed_batches": self._replayed_batches}

    def checkpoint(self, directory: str | Path) -> Path:
        """Persist the system and truncate the now-redundant WAL.

        Save and truncate happen under the data *write* lock: a commit
        interleaving between them would be acknowledged yet present in
        neither the checkpoint nor the WAL (lost on restart), and
        truncation must not unlink a segment a concurrent commit is
        appending to.
        """
        from repro.api.persistence import save_system

        with self._data_lock.write_locked():
            saved = save_system(self.system, directory)
            self.wal.truncate()
        return saved

    # -- background merge -------------------------------------------------

    def _request_merge(self) -> None:
        with self._state_lock:
            if self._closed:
                return
            if self._merge_thread is None:
                self._merge_thread = threading.Thread(
                    target=self._merge_loop, name="ingest-merge",
                    daemon=True)
                self._merge_thread.start()
        self._merge_wakeup.set()

    def _merge_loop(self) -> None:
        while True:
            self._merge_wakeup.wait()
            self._merge_wakeup.clear()
            with self._state_lock:
                if self._closed:
                    return
                self._docs_since_merge = 0
            self.merge_now()

    def merge_now(self) -> int:
        """Fold the search corpus's delta segments into its base postings.

        Runs under the *read* side of the data lock: queries proceed
        concurrently (the merged index is byte-identical, so either
        generation answers them correctly); only writers wait.
        Returns the number of indexes that actually merged (0 or 1).
        """
        with self._data_lock.read_locked():
            merged = int(self.system.search_corpus.merge_segments())
        if merged:
            with self._state_lock:
                self._merges += merged
        return merged

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._state_lock:
            docs_since_merge = self._docs_since_merge
            merges = self._merges
        return {
            "seq": self._seq,
            "snapshots": self.snapshots.names(),
            "wal_segments": len(self.wal.segment_paths()),
            "merge_threshold": self.merge_threshold,
            "docs_since_merge": docs_since_merge,
            "merges": merges,
            # One shared corpus: the three engines carry the same debt.
            "delta_rows": dict.fromkeys(
                ("all_fields", "title_abstract", "table"),
                self.system.search_corpus.delta_rows),
            "delta_segments": self.system.search_corpus.delta_segments,
        }

    def close(self) -> None:
        with self._state_lock:
            self._closed = True
            thread = self._merge_thread
        self._merge_wakeup.set()
        if thread is not None:
            thread.join(timeout=5.0)
        self.wal.close()

    def __enter__(self) -> "IngestEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
