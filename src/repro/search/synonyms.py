"""Synonym expansion for query matching and ranking.

Two sources, layered:

* a **curated table** of domain synonym groups (the paper's own example:
  "significant concepts and terms can be referred to differently (e.g.
  COVID-19 and coronavirus disease 2019)"), and
* optional **embedding neighbours** from a trained Word2Vec model, which
  generalize to terms the curators never listed.

Expansions carry weights < 1.0 so a synonym match contributes to the
ranking without outranking a literal match ("The ranking function
incorporates matching terms and synonyms" — Section 5).
"""

from __future__ import annotations

from repro.embeddings.word2vec import Word2Vec

#: Weight of a curated synonym relative to a literal term match.
CURATED_WEIGHT = 0.8
#: Weight scale applied to embedding-neighbour similarity.
EMBEDDING_WEIGHT = 0.5
#: Minimum cosine similarity for an embedding neighbour to qualify.
EMBEDDING_FLOOR = 0.6

#: Curated synonym groups; membership is symmetric within a group.
SYNONYM_GROUPS: tuple[tuple[str, ...], ...] = (
    ("covid-19", "covid", "coronavirus", "sars-cov-2",
     "coronavirus disease 2019"),
    ("vaccine", "vaccination", "immunization", "inoculation"),
    ("ventilator", "respirator", "mechanical ventilation"),
    ("mask", "face covering", "ppe"),
    ("fever", "pyrexia"),
    ("fatigue", "tiredness", "exhaustion"),
    ("icu", "intensive care"),
    ("strain", "variant", "lineage"),
    ("side effect", "adverse event", "adverse reaction"),
    ("efficacy", "effectiveness"),
    ("transmission", "spread", "contagion"),
    ("children", "pediatric", "paediatric"),
)


def _build_table(groups: tuple[tuple[str, ...], ...]
                 ) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {}
    for group in groups:
        for term in group:
            others = [other for other in group if other != term]
            table.setdefault(term.lower(), []).extend(others)
    return table


_CURATED = _build_table(SYNONYM_GROUPS)


class SynonymExpander:
    """Expand a query term into weighted synonyms."""

    def __init__(self, word2vec: Word2Vec | None = None,
                 max_embedding_neighbors: int = 3,
                 groups: tuple[tuple[str, ...], ...] | None = None) -> None:
        self.word2vec = word2vec
        self.max_embedding_neighbors = max_embedding_neighbors
        self._table = (
            _build_table(groups) if groups is not None else _CURATED
        )

    def expand(self, term: str) -> list[tuple[str, float]]:
        """Weighted synonyms of ``term`` (never includes the term itself).

        Curated synonyms come first; embedding neighbours (when a model
        is attached) follow, weighted by their cosine similarity.
        """
        term = term.lower()
        expansions: list[tuple[str, float]] = [
            (synonym, CURATED_WEIGHT)
            for synonym in self._table.get(term, [])
        ]
        seen = {synonym for synonym, _ in expansions} | {term}
        if self.word2vec is not None and term in self.word2vec.vocabulary:
            neighbors = self.word2vec.most_similar(
                term, top_k=self.max_embedding_neighbors
            )
            for neighbor, similarity in neighbors:
                if neighbor in seen or similarity < EMBEDDING_FLOOR:
                    continue
                expansions.append(
                    (neighbor, EMBEDDING_WEIGHT * similarity)
                )
                seen.add(neighbor)
        return expansions
