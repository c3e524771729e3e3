"""Pinned answers: the SHA-256 of the graph and the audits built from it.

``test_pinned_pages`` pins the search pages; this module pins what the
table reader feeds — the knowledge graph, Figure 6's meta-profile and
the bias report — for one seeded corpus ingested twice: by a system left
untrained (rows labelled by their ``<th>`` structure) and by one with a
trained SVM (rows labelled by its predictions).  A change to which rows
count as a table's header moves these digests.

A change that means to move an answer regenerates the file with
``PYTHONPATH=src python -m tests.test_pinned_graph`` and says why;
the run prints which surfaces moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.corpus.schema import full_text

DIGESTS = Path(__file__).with_name("pinned_graph.json")


def _systems() -> dict[str, CovidKG]:
    papers = CorpusGenerator(GeneratorConfig(
        seed=7, papers_per_week=20, tables_per_paper=(1, 3),
        sections_per_paper=(1, 2), sentences_per_section=(2, 4),
    )).papers(40)
    untrained = CovidKG(CovidKGConfig(num_shards=2))
    untrained.ingest(papers)
    svm = CovidKG(CovidKGConfig(num_shards=2, wdc_training_tables=20,
                                embedding_dim=8))
    svm.train(papers[:20], word2vec_epochs=1)
    svm.ingest(papers)
    return {"untrained": untrained, "svm": svm}


def _surfaces(system: CovidKG) -> dict[str, str]:
    return {
        "graph": json.dumps(system.graph.to_json(), sort_keys=True),
        "meta_profile": json.dumps(system.meta_profile().to_json()),
        "bias": json.dumps(dataclasses.asdict(system.interrogate_bias())),
    }


def digests(systems: dict[str, CovidKG]) -> dict[str, str]:
    return {
        f"{name} {surface}": hashlib.sha256(text.encode()).hexdigest()
        for name, system in systems.items()
        for surface, text in _surfaces(system).items()
    }


def _moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return sorted(cell for cell in expected.keys() | actual.keys()
                  if expected.get(cell) != actual.get(cell))


@pytest.fixture(scope="module")
def systems():
    return _systems()


def test_every_surface_matches_its_pinned_digest(systems):
    expected = json.loads(DIGESTS.read_text())
    assert _moved(expected, digests(systems)) == []


def test_the_surfaces_are_not_vacuous(systems):
    for system in systems.values():
        assert len(system.graph) > 40
        assert len(system.meta_profile().records) > 20
        assert system.interrogate_bias().flags


def _words_of(paper) -> str:
    cells = " ".join(
        cell.get("text", "")
        for table in paper["tables"] for row in table["rows"]
        for cell in row["cells"]
    )
    return f"{full_text(paper)} {cells}".lower()


def test_every_leaf_occurs_in_each_paper_it_cites(systems):
    """Provenance: a leaf's label is in every paper its provenance cites.

    The category roots (Vaccines, Side-effects, Strains) are cited by
    papers that never spell them out; they have children, so they are
    not leaves.
    """
    for name, system in systems.items():
        words = {paper["paper_id"]: _words_of(paper)
                 for paper in system.ingested_papers()}
        cited = missing = 0
        for node in system.graph.to_json()["nodes"]:
            if node["children"]:
                continue
            for paper_id in node.get("provenance", []):
                cited += 1
                if node["label"].lower() not in words[paper_id]:
                    missing += 1
        assert cited > 100, name
        assert missing == 0, name


if __name__ == "__main__":
    fresh = digests(_systems())
    if DIGESTS.exists():
        for cell in _moved(json.loads(DIGESTS.read_text()), fresh):
            print(f"moved: {cell}")
    DIGESTS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fresh)} digests to {DIGESTS}", file=sys.stderr)
