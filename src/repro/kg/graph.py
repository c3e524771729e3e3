"""The hierarchical knowledge graph container.

Supports the operations the paper's front end and fusion pipeline need:
adding nodes under a parent, path computation (for the interactive
path-highlighting search), subtree views, lookup by normalized label, and
JSON round-tripping.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Iterator

from dataclasses import dataclass

from repro.errors import GraphError
from repro.kg.node import KGNode, normalize_label, stem_terms


@dataclass
class _DerivedIndexes:
    """Per-version caches of everything derivable by one graph pass.

    Rebuilt lazily whenever the graph's version counter moves past the
    one recorded here.  Rebuilds are idempotent (two readers racing a
    rebuild compute equal objects and one assignment wins), so no lock
    is needed on the read path; writers already serialize behind the
    serving tier's writer lock.
    """

    version: int
    #: node_id -> stemmed label terms (keyword search, KGQL CONTAINS).
    stems: dict[str, frozenset[str]]
    #: node_id -> distance from the root (root = 0).
    depths: dict[str, int]


class KnowledgeGraph:
    """A rooted tree of :class:`KGNode` with label indexes."""

    def __init__(self, root_label: str = "COVID-19") -> None:
        self._nodes: dict[str, KGNode] = {}
        self._by_normalized: dict[str, list[str]] = {}
        self._counter = itertools.count(1)
        self._version = 0
        self._derived: _DerivedIndexes | None = None
        self.root_id = self._create_node(root_label, parent_id=None)

    # -- versioning -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic write counter; bumped on every structural change.

        Provenance-only writes (fusion merging papers into existing
        nodes) happen on the nodes directly, so the fusion engine calls
        :meth:`touch` for those.  Result caches compare snapshots of this
        counter to detect stale KG query results.
        """
        return self._version

    def touch(self) -> None:
        """Record an out-of-band mutation (e.g. node provenance writes)."""
        self._version += 1

    def advance_version(self, floor: int) -> None:
        """Raise the version to at least ``floor`` (never lowers it)."""
        self._version = max(self._version, floor)

    # -- construction ----------------------------------------------------------

    def _create_node(self, label: str, parent_id: str | None,
                     category: str | None = None) -> str:
        node_id = f"n{next(self._counter)}"
        node = KGNode(node_id=node_id, label=label, parent_id=parent_id,
                      category=category)
        self._nodes[node_id] = node
        self._by_normalized.setdefault(node.normalized, []).append(node_id)
        if parent_id is not None:
            self._nodes[parent_id].children.append(node_id)
        self._version += 1
        return node_id

    def add_node(self, label: str, parent_id: str | None = None,
                 category: str | None = None,
                 provenance: str | None = None) -> str:
        """Add a child node under ``parent_id`` (default: the root)."""
        if not label or not label.strip():
            raise GraphError("node label must be non-empty")
        parent_id = parent_id or self.root_id
        if parent_id not in self._nodes:
            raise GraphError(f"unknown parent node {parent_id!r}")
        node_id = self._create_node(label.strip(), parent_id, category)
        if provenance:
            self._nodes[node_id].add_provenance(provenance)
        return node_id

    def insert_parent(self, label: str, child_id: str,
                      category: str | None = None) -> str:
        """Insert a new node between ``child_id`` and its current parent.

        This is the "the node Vaccine then can be added to the KG on the
        top of the NovoVac node" operation from Section 4.2.
        """
        child = self.node(child_id)
        if child.parent_id is None:
            raise GraphError("cannot insert a parent above the root")
        old_parent = self._nodes[child.parent_id]
        new_id = self._create_node(label, old_parent.node_id, category)
        old_parent.children.remove(child_id)
        # _create_node already appended new_id to old_parent's children.
        self._nodes[new_id].children.append(child_id)
        child.parent_id = new_id
        self._version += 1
        return new_id

    # -- access ------------------------------------------------------------

    def node(self, node_id: str) -> KGNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def root(self) -> KGNode:
        return self._nodes[self.root_id]

    def children(self, node_id: str) -> list[KGNode]:
        return [self._nodes[cid] for cid in self.node(node_id).children]

    def parent(self, node_id: str) -> KGNode | None:
        parent_id = self.node(node_id).parent_id
        return self._nodes[parent_id] if parent_id else None

    def find_by_label(self, label: str) -> list[KGNode]:
        """Nodes whose normalized label equals ``label``'s normalization."""
        ids = self._by_normalized.get(normalize_label(label), [])
        return [self._nodes[node_id] for node_id in ids]

    # -- derived indexes (version-stamped caches) --------------------------

    def _indexes(self) -> _DerivedIndexes:
        derived = self._derived
        if derived is None or derived.version != self._version:
            stems: dict[str, frozenset[str]] = {}
            depths: dict[str, int] = {self.root_id: 0}
            for node in self.walk():
                stems[node.node_id] = stem_terms(node.label)
                depth = depths[node.node_id]
                for child_id in node.children:
                    depths[child_id] = depth + 1
            derived = _DerivedIndexes(
                version=self._version,
                stems=stems,
                depths=depths,
            )
            self._derived = derived
        return derived

    def label_stems(self) -> dict[str, frozenset[str]]:
        """Cached ``node_id -> stemmed label terms`` map.

        Keyword search and the KGQL node-match stage used to recompute
        per-node stems on every call — one stemmer pass per node per
        query.  The map is now built once per graph version and reused
        until :meth:`touch`/structural writes bump the counter.
        """
        return self._indexes().stems

    def depth_map(self) -> dict[str, int]:
        """Cached ``node_id -> depth`` (root = 0) for every node."""
        return self._indexes().depths

    def path_to(self, node_id: str) -> list[KGNode]:
        """Nodes from the root down to ``node_id`` (inclusive)."""
        path = []
        current: str | None = node_id
        seen = set()
        while current is not None:
            if current in seen:
                raise GraphError(f"cycle detected at {current!r}")
            seen.add(current)
            node = self.node(current)
            path.append(node)
            current = node.parent_id
        return list(reversed(path))

    def depth(self, node_id: str) -> int:
        """Root has depth 0."""
        return len(self.path_to(node_id)) - 1

    def walk(self, start_id: str | None = None) -> Iterator[KGNode]:
        """Depth-first pre-order traversal."""
        start_id = start_id or self.root_id
        stack = [start_id]
        while stack:
            node = self.node(stack.pop())
            yield node
            stack.extend(reversed(node.children))

    def leaves(self, start_id: str | None = None) -> list[KGNode]:
        return [node for node in self.walk(start_id) if node.is_leaf]

    def papers_for(self, node_id: str) -> list[str]:
        """Provenance of a node and every descendant."""
        papers: list[str] = []
        for node in self.walk(node_id):
            for paper_id in node.provenance:
                if paper_id not in papers:
                    papers.append(paper_id)
        return papers

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "root": self.root_id,
            "nodes": [node.to_json() for node in self._nodes.values()],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "KnowledgeGraph":
        nodes = [KGNode.from_json(entry) for entry in data.get("nodes", [])]
        if not nodes:
            raise GraphError("graph JSON has no nodes")
        root_id = data.get("root")
        by_id = {node.node_id: node for node in nodes}
        if root_id not in by_id:
            raise GraphError(f"root {root_id!r} not among nodes")

        graph = cls.__new__(cls)
        graph._nodes = by_id
        graph._derived = None
        graph._by_normalized = {}
        for node in nodes:
            graph._by_normalized.setdefault(
                node.normalized, []
            ).append(node.node_id)
        numeric = [
            int(node.node_id[1:]) for node in nodes
            if node.node_id.startswith("n") and node.node_id[1:].isdigit()
        ]
        graph._counter = itertools.count(max(numeric, default=0) + 1)
        graph._version = len(nodes)
        graph.root_id = root_id
        graph._validate()
        return graph

    def _validate(self) -> None:
        for node in self._nodes.values():
            for child_id in node.children:
                if child_id not in self._nodes:
                    raise GraphError(
                        f"node {node.node_id} references missing child "
                        f"{child_id!r}"
                    )
                child = self._nodes[child_id]
                if child.parent_id != node.node_id:
                    raise GraphError(
                        f"child {child_id} does not point back to "
                        f"{node.node_id}"
                    )
        # Every node must be reachable from the root (a tree, not a forest).
        reachable = {node.node_id for node in self.walk(self.root_id)}
        if reachable != set(self._nodes):
            orphans = set(self._nodes) - reachable
            raise GraphError(f"orphan nodes: {sorted(orphans)}")

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeGraph":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    def statistics(self) -> dict[str, Any]:
        """Size/shape summary shown by the API and benchmarks."""
        depths = list(self.depth_map().values())
        return {
            "nodes": len(self._nodes),
            "leaves": sum(
                1 for node in self._nodes.values() if node.is_leaf
            ),
            "max_depth": max(depths, default=0),
            "papers": len({
                paper_id
                for node in self._nodes.values()
                for paper_id in node.provenance
            }),
        }
