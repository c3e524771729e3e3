"""Pinned answers: the SHA-256 of every served search page.

The differential tests compare the kernel, the scalar pipeline and the
full sort with each other; a change both sides share (the TF weight,
the query plan, the scalar pipeline's stages) moves them together and
passes.  This module pins the answers themselves: one digest per cell of
the page matrix — three engines × a kernel / multi-term / phrase /
synonym query × pages 1–3 × ``use_columnar`` × ``full_sort`` — over a
fixed seeded 100-paper corpus in a 4-shard store, against
``pinned_pages.json``.

A change that means to move an answer regenerates the file with
``PYTHONPATH=src python -m tests.test_pinned_pages`` and says why;
the run prints which cells moved.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.docstore.sharding import ShardedCollection
from repro.gateway.routes import encode_value
from repro.search.all_fields import AllFieldsEngine
from repro.search.corpus import SearchCorpus
from repro.search.synonyms import SynonymExpander
from repro.search.table_search import TableSearchEngine
from repro.search.title_abstract import TitleAbstractCaptionEngine

DIGESTS = Path(__file__).with_name("pinned_pages.json")

#: One query per kind; "synonym" runs on engines built with the curated
#: ``SynonymExpander``, the other kinds on plain engines.
QUERIES = {
    "kernel": "vaccine",
    "multi-term": "vaccine efficacy doses",
    "phrase": '"vaccine efficacy"',
    "synonym": "immunization effectiveness",
}

PAGES = (1, 2, 3)


def _store_corpus() -> SearchCorpus:
    # Short bodies keep the scalar cells (one regex and one scoring pass
    # per matched field) to a few seconds; tables stay full-size.
    papers = CorpusGenerator(GeneratorConfig(
        seed=21, sections_per_paper=(1, 2), sentences_per_section=(2, 3),
    )).papers(100)
    store = ShardedCollection("publications", shard_key="paper_id",
                              num_shards=4)
    store.create_index("paper_id", unique=True)
    corpus = SearchCorpus(store)
    corpus.add_papers(papers)
    return corpus


def _search(engine, query: str, page: int):
    if isinstance(engine, TitleAbstractCaptionEngine):
        return engine.search(caption=query, page=page)
    return engine.search(query, page=page)


def pages():
    """Every ``(cell, SearchResults)`` of the matrix, timing zeroed."""
    corpus = _store_corpus()
    engine_classes = {"all_fields": AllFieldsEngine,
                      "title_abstract": TitleAbstractCaptionEngine,
                      "tables": TableSearchEngine}
    plain = {name: cls(corpus=corpus)
             for name, cls in engine_classes.items()}
    synonym = {name: cls(expander=SynonymExpander(), corpus=corpus)
               for name, cls in engine_classes.items()}
    for (name, (kind, query), use_columnar, full_sort) in itertools.product(
            engine_classes, QUERIES.items(), (True, False), (False, True)):
        engine = (synonym if kind == "synonym" else plain)[name]
        engine.use_columnar = use_columnar
        engine.full_sort = full_sort
        for page in PAGES:
            results = _search(engine, query, page)
            results.seconds = 0.0
            yield (f"{name} {kind} p{page} "
                   f"columnar={use_columnar} full_sort={full_sort}",
                   results)


def _digest(results) -> str:
    return hashlib.sha256(encode_value(results)).hexdigest()


def _moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return sorted(cell for cell in expected.keys() | actual.keys()
                  if expected.get(cell) != actual.get(cell))


@pytest.fixture(scope="module")
def matrix():
    return {cell: (_digest(results), len(results))
            for cell, results in pages()}


def test_every_page_matches_its_pinned_digest(matrix):
    expected = json.loads(DIGESTS.read_text())
    actual = {cell: digest for cell, (digest, _) in matrix.items()}
    assert _moved(expected, actual) == []


def test_the_matrix_is_not_vacuous(matrix):
    assert len(matrix) == 3 * len(QUERIES) * len(PAGES) * 2 * 2
    # Each (engine, kind, page) answers once, whatever the path.
    assert len({digest for digest, _ in matrix.values()}) \
        == len(matrix) // 4
    full = [cell for cell, (_, hits) in matrix.items() if hits == 10]
    assert len(full) >= len(matrix) // 2
    # Every kind fills a third page somewhere.
    assert {kind for kind in QUERIES
            if any(cell.startswith(f"all_fields {kind} p3 ")
                   for cell in full)} == set(QUERIES)


if __name__ == "__main__":
    fresh = {cell: _digest(results) for cell, results in pages()}
    if DIGESTS.exists():
        for cell in _moved(json.loads(DIGESTS.read_text()), fresh):
            print(f"moved: {cell}")
    DIGESTS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fresh)} digests to {DIGESTS}", file=sys.stderr)
