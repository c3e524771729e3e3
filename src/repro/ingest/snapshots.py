"""Named snapshots and atomic rollback for streaming ingest.

A snapshot is *logical*, not a byte copy: the ingested-paper count, the
knowledge graph serialized to JSON, and the live version counters.
That is sufficient because re-indexing is deterministic — replaying the
store's first ``num_papers`` rows in insertion order (the store is the
one record of what was ingested) through fresh engines reproduces the
saved state bit-for-bit (the differential tests assert byte-identical
query pages), while costing O(corpus) memory only for the graph JSON.

``rollback`` opens a fresh store (and the engines over it) on the live
:class:`~repro.api.system.CovidKG`, advances it and the restored graph
past their pre-rollback versions, and refills the store through the
system's own write path.  Two consequences:

* the caller holds the serving tier's write lock for the whole
  rebuild, so no query can observe a half-rebuilt system;
* every cached result (positive or negative) keyed on the old
  snapshots invalidates immediately, because no counter ever repeats.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import SnapshotNotFoundError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.system import CovidKG


@dataclass
class Snapshot:
    """One committed-batch restore point."""

    name: str
    #: Committed-batch sequence number (``0`` is the pre-ingest base).
    seq: int
    #: ``len(system.store)`` at snapshot time.
    num_papers: int
    #: ``graph.to_json()`` serialized (a string: immutable by design).
    graph_json: str
    #: Counters at snapshot time, for diagnostics/stats.
    versions: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {"name": self.name, "seq": self.seq,
                "num_papers": self.num_papers,
                "versions": dict(self.versions)}


def take_snapshot(system: "CovidKG", name: str, seq: int) -> Snapshot:
    return Snapshot(
        name=name,
        seq=seq,
        num_papers=len(system.store),
        graph_json=json.dumps(system.graph.to_json(),
                              separators=(",", ":")),
        versions=system.versions(),
    )


def restore_snapshot(system: "CovidKG", snapshot: Snapshot) -> None:
    """Rewind ``system`` to ``snapshot`` in place.

    The caller is responsible for exclusion (the serving tier holds its
    write lock).  The rebuild is deterministic: the store's first
    ``snapshot.num_papers`` *enriched* documents, in insertion order,
    replay through fresh engines exactly as the original ingest indexed
    them (classification already happened before they were stored), and
    the graph restores from its serialized snapshot.
    """
    from repro.kg.graph import KnowledgeGraph

    old = system.versions()
    retained = system.ingested_papers()[:snapshot.num_papers]
    graph = KnowledgeGraph.from_json(json.loads(snapshot.graph_json))
    # No counter may ever repeat a pre-rollback value, or a cached page
    # computed against the discarded state could read as fresh: every
    # replacement starts past its predecessor.
    graph.advance_version(old["kg"] + 1)
    system._open_store()
    system.store.advance_version(old["store"] + 1)
    for document in retained:
        system._retain(document)
    system.adopt_graph(graph)


class SnapshotStore:
    """Bounded, ordered retention of named snapshots."""

    def __init__(self, retention: int = 8) -> None:
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.retention = retention
        self._snapshots: "OrderedDict[str, Snapshot]" = OrderedDict()

    def add(self, snapshot: Snapshot) -> None:
        self._snapshots[snapshot.name] = snapshot
        self._snapshots.move_to_end(snapshot.name)
        while len(self._snapshots) > self.retention:
            self._snapshots.popitem(last=False)

    def get(self, name: str) -> Snapshot:
        snapshot = self._snapshots.get(name)
        if snapshot is None:
            retained = ", ".join(self._snapshots) or "<none>"
            raise SnapshotNotFoundError(
                f"no snapshot named {name!r} (retained: {retained})")
        return snapshot

    def drop_after(self, seq: int) -> None:
        """Forget snapshots newer than ``seq`` (they describe undone state)."""
        for name in [name for name, snap in self._snapshots.items()
                     if snap.seq > seq]:
            del self._snapshots[name]

    def names(self) -> list[str]:
        return list(self._snapshots)

    def latest(self) -> Snapshot | None:
        if not self._snapshots:
            return None
        return next(reversed(self._snapshots.values()))

    def __len__(self) -> int:
        return len(self._snapshots)

    def __contains__(self, name: str) -> bool:
        return name in self._snapshots
