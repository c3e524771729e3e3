"""KG enrichment: topical clustering and entity extraction (№5/№6).

The pipeline turns a batch of papers into :class:`ExtractedSubtree`
instances and fuses them:

* **Tables** are the structured source: side-effect tables yield
  ``Side-effects -> {effect leaves}`` (plus the vaccine from the caption),
  efficacy tables yield ``Vaccines -> {vaccine leaves}``.  Extraction reads
  the *table content itself* (captions, and cells split by the rows'
  metadata labels), never the generator's ground-truth block.
* **Body text** contributes pattern-extracted mentions ("received the X
  vaccine", "the X strain dominated").
* **Topical clusters** group the corpus so enrichment can be run per
  topic; cluster quality is measured against generator ground truth in
  experiment E13.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.corpus.schema import full_text
from repro.kg.fusion import ExtractedSubtree, FusionEngine, FusionResult
from repro.ml.kmeans import KMeans
from repro.tables.model import header_and_data
from repro.text.stemmer import stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenizer import tokenize

_VACCINE_CAPTION_RE = re.compile(
    r"side effects reported after (\w[\w-]*) vaccination", re.IGNORECASE
)
_VACCINE_BODY_RE = re.compile(
    r"received the (\w[\w-]*) vaccine", re.IGNORECASE
)
_STRAIN_BODY_RE = re.compile(
    r"the ([\w.-]+) strain", re.IGNORECASE
)


def document_vector(text: str, dim: int = 128) -> np.ndarray:
    """L2-normalized hashed bag-of-stems vector for clustering."""
    vector = np.zeros(dim)
    for token in tokenize(text):
        if token in STOPWORDS:
            continue
        digest = zlib.crc32(stem(token).encode("utf-8"))
        vector[digest % dim] += 1.0
    norm = float(np.linalg.norm(vector))
    return vector / norm if norm else vector


@dataclass
class TopicCluster:
    """One discovered topical cluster."""

    cluster_id: int
    paper_ids: list[str]
    top_terms: list[str]


@dataclass
class EnrichmentReport:
    """What one enrichment run extracted and fused."""

    #: How many papers the run read (for an ingest: how many landed).
    papers: int = 0
    subtrees: int = 0
    fusion_results: list[FusionResult] = field(default_factory=list)
    clusters: list[TopicCluster] = field(default_factory=list)

    def actions(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.fusion_results:
            counts[result.action] = counts.get(result.action, 0) + 1
        return counts


class EnrichmentPipeline:
    """Cluster, extract, and fuse a batch of papers into the KG."""

    def __init__(self, engine: FusionEngine) -> None:
        self.engine = engine

    # -- topical clustering (№5) -----------------------------------------

    def cluster_topics(self, papers: list[dict[str, Any]],
                       num_clusters: int, seed: int = 0
                       ) -> tuple[list[TopicCluster], np.ndarray]:
        """k-means over document vectors; returns clusters + assignments."""
        vectors = np.stack([
            document_vector(full_text(paper)) for paper in papers
        ])
        assignments = KMeans(num_clusters, seed=seed).fit_predict(vectors)
        clusters = []
        for cluster_id in range(num_clusters):
            members = [
                paper for paper, assignment in zip(papers, assignments)
                if assignment == cluster_id
            ]
            clusters.append(TopicCluster(
                cluster_id=cluster_id,
                paper_ids=[paper["paper_id"] for paper in members],
                top_terms=self._top_terms(members),
            ))
        return clusters, assignments

    @staticmethod
    def _top_terms(papers: list[dict[str, Any]], top_k: int = 5
                   ) -> list[str]:
        counts: dict[str, int] = {}
        for paper in papers:
            for token in tokenize(full_text(paper)):
                if token in STOPWORDS or len(token) < 4:
                    continue
                counts[token] = counts.get(token, 0) + 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return [term for term, _ in ranked[:top_k]]

    # -- entity extraction (№6) ---------------------------------------------

    def extract_subtrees(self, paper: dict[str, Any]
                         ) -> list[ExtractedSubtree]:
        """Extract fusable subtrees from one paper's tables and text."""
        paper_id = paper["paper_id"]
        subtrees: list[ExtractedSubtree] = []

        for table in paper.get("tables", []):
            caption = table.get("caption", "")
            header, data_rows = header_and_data(table)
            caption_match = _VACCINE_CAPTION_RE.search(caption)
            if caption_match:
                vaccine = caption_match.group(1)
                subtrees.append(ExtractedSubtree(
                    label="Vaccines", category="vaccines",
                    provenance=paper_id,
                    children=[ExtractedSubtree(
                        label=vaccine, category="vaccines",
                        provenance=paper_id,
                    )],
                ))
                effects = [
                    row[0] for row in data_rows if row and row[0]
                ]
                if effects:
                    subtrees.append(ExtractedSubtree(
                        label="Side-effects", category="side_effects",
                        provenance=paper_id,
                        children=[
                            ExtractedSubtree(
                                label=effect, category="side_effects",
                                provenance=paper_id,
                            )
                            for effect in effects
                        ],
                    ))
            elif header and header[0].strip().lower() == "vaccine":
                vaccines = [row[0] for row in data_rows if row and row[0]]
                if vaccines:
                    subtrees.append(ExtractedSubtree(
                        label="Vaccines", category="vaccines",
                        provenance=paper_id,
                        children=[
                            ExtractedSubtree(
                                label=vaccine, category="vaccines",
                                provenance=paper_id,
                            )
                            for vaccine in vaccines
                        ],
                    ))

        body = " ".join(
            section.get("text", "") for section in paper.get("body_text", [])
        )
        for match in _VACCINE_BODY_RE.finditer(body):
            subtrees.append(ExtractedSubtree(
                label="Vaccines", category="vaccines", provenance=paper_id,
                children=[ExtractedSubtree(
                    label=match.group(1), category="vaccines",
                    provenance=paper_id,
                )],
            ))
        for match in _STRAIN_BODY_RE.finditer(body):
            subtrees.append(ExtractedSubtree(
                label="Strains", category="strains", provenance=paper_id,
                children=[ExtractedSubtree(
                    label=match.group(1), category="strains",
                    provenance=paper_id,
                )],
            ))
        return subtrees

    # -- the full enrichment pass -------------------------------------------

    def enrich(self, papers: list[dict[str, Any]],
               num_clusters: int | None = None,
               seed: int = 0) -> EnrichmentReport:
        """Extract from every paper and fuse everything into the graph."""
        report = EnrichmentReport(papers=len(papers))
        if num_clusters and len(papers) >= num_clusters:
            report.clusters, _ = self.cluster_topics(
                papers, num_clusters, seed=seed
            )
        for paper in papers:
            for subtree in self.extract_subtrees(paper):
                report.subtrees += 1
                report.fusion_results.append(self.engine.fuse(subtree))
        return report
