"""Interactive KG search with path highlighting (paper Section 4.2).

"The user can search over the KG via the front-end interface that except
matching nodes also highlights the path to the matching nodes.  The user
can then either browse the graph ... or click the papers linked off these
nodes."  A hit therefore carries the node, the full root-to-node path, a
rendered path string with the match marked, and the provenance papers.
Browsing from a node is a one-hop KGQL ``parent_of`` / ``child_of``
query (:mod:`repro.kgql`), whose node payloads carry the same path,
rendered path and papers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.kg.graph import KnowledgeGraph
from repro.kg.node import KGNode, stem_terms

HIGHLIGHT_OPEN = "[["
HIGHLIGHT_CLOSE = "]]"


def render_path(path: list[KGNode]) -> str:
    """``COVID-19 > Vaccines > [[Pfizer]]`` — the UI's highlighted path.

    The one renderer: KG search hits and KGQL node payloads both use it.
    """
    parts = [node.label for node in path[:-1]]
    parts.append(f"{HIGHLIGHT_OPEN}{path[-1].label}{HIGHLIGHT_CLOSE}")
    return " > ".join(parts)


@dataclass
class KGSearchHit:
    """One matching node with its highlighted path and provenance."""

    node: KGNode
    path: list[KGNode]
    score: float
    papers: list[str]

    @property
    def path_labels(self) -> list[str]:
        return [node.label for node in self.path]

    def rendered_path(self) -> str:
        """The UI's highlighted root path (:func:`render_path`)."""
        return render_path(self.path)


class KGSearchEngine:
    """Stemmed term search over knowledge-graph node labels."""

    def __init__(self, graph: KnowledgeGraph) -> None:
        self.graph = graph

    def search(self, query: str, top_k: int = 10) -> list[KGSearchHit]:
        """Nodes whose labels match the query terms, best first.

        Score = fraction of query term stems present in the node label,
        with full matches ranked above partial ones and shallower nodes
        above deeper ones at equal coverage.
        """
        query_stems = sorted(stem_terms(query))
        if not query_stems:
            raise QueryError("empty query")
        hits = []
        # Per-node label stems come from the graph's version-stamped
        # cache: one stemmer pass per graph version, not per query.
        stems_by_node = self.graph.label_stems()
        for node in self.graph.walk():
            label_stems = stems_by_node[node.node_id]
            matched = sum(1 for s in query_stems if s in label_stems)
            if matched == 0:
                continue
            coverage = matched / len(query_stems)
            path = self.graph.path_to(node.node_id)
            score = coverage - 0.01 * (len(path) - 1)
            hits.append(KGSearchHit(
                node=node, path=path, score=score,
                papers=self.graph.papers_for(node.node_id),
            ))
        hits.sort(key=lambda hit: -hit.score)
        return hits[:top_k]
