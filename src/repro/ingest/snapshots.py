"""Named snapshots and atomic rollback for streaming ingest.

A snapshot is *logical*, not a byte copy: the ingested-paper count, the
knowledge graph serialized to JSON, and the live version counters.
That is sufficient because re-indexing is deterministic — replaying the
store's first ``num_papers`` rows in insertion order (the store is the
one record of what was ingested) through fresh engines reproduces the
saved state bit-for-bit (the differential tests assert byte-identical
query pages), while costing O(corpus) memory only for the graph JSON.

``rollback`` hands the retained rows and the saved graph to
:meth:`~repro.api.system.CovidKG.restore`, the one rebuild reload uses
too: a fresh store (and the engines over it) refilled in order, the
graph adopted, every counter raised past its pre-rollback value.  Two
consequences:

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

    system.restore(
        system.ingested_papers()[:snapshot.num_papers],
        KnowledgeGraph.from_json(json.loads(snapshot.graph_json)),
        system.versions())


#: Restore points a :class:`SnapshotStore` keeps; older ones are dropped.
RETENTION = 8


class SnapshotStore:
    """Bounded, ordered retention of named snapshots."""

    def __init__(self) -> None:
        self._snapshots: "OrderedDict[str, Snapshot]" = OrderedDict()

    def add(self, snapshot: Snapshot) -> None:
        self._snapshots[snapshot.name] = snapshot
        self._snapshots.move_to_end(snapshot.name)
        while len(self._snapshots) > RETENTION:
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

    def latest(self) -> Snapshot:
        return next(reversed(self._snapshots.values()))

    def __len__(self) -> int:
        return len(self._snapshots)

    def __contains__(self, name: str) -> bool:
        return name in self._snapshots
