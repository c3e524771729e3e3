"""The shared :class:`SearchCorpus`: analyse once, answer identically.

``CovidKG`` hands one corpus to its three engines.  The properties
checked here: a system on the shared corpus serves byte-identical pages
to three standalone engines (each with a private corpus) fed the same
papers; every writer analyses a paper exactly once; and the one
``field_text`` reader keeps term statistics and columnar postings
counting the same tokens.
"""

from __future__ import annotations

import pytest

import repro.search.corpus as corpus_module
from repro.api.persistence import load_system, save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator
from repro.docstore.functions import FunctionRegistry
from repro.search.all_fields import AllFieldsEngine
from repro.search.corpus import SearchCorpus
from repro.search.indexing import build_search_document, field_text
from repro.search.table_search import TableSearchEngine
from repro.search.title_abstract import TitleAbstractCaptionEngine
from tests.segment_layouts import install_segments

#: Kernel-eligible queries and quoted phrases (scalar ``$function`` path).
QUERIES = ["vaccine", "dose", "patients treatment", "covid vaccine",
           '"side effects"', '"side effects" vaccine']


@pytest.fixture(scope="module")
def papers():
    return CorpusGenerator().papers(80)


def _hits(results):
    return (results.total_matches,
            [(hit.paper_id, hit.title, hit.score, hit.snippets, hit.extras)
             for hit in results.results],
            [stats.stage for stats in results.stage_stats])


def _all_pages(all_fields, title_abstract, tables):
    pages = []
    for query in QUERIES:
        for page in (1, 2, 3):
            pages.append(_hits(all_fields.search(query, page=page)))
            pages.append(_hits(tables.search(query, page=page)))
            pages.append(_hits(title_abstract.search(abstract=query,
                                                     page=page)))
            pages.append(_hits(title_abstract.search(
                title=query, caption=query, page=page)))
    return pages


@pytest.mark.parametrize("num_segments", [1, 4])
@pytest.mark.parametrize("ranker", ["tfidf", "bm25"])
def test_shared_corpus_pages_equal_three_standalone_engines(
        papers, ranker, num_segments):
    """Shared corpus served from ``num_segments`` equal slices (base +
    delta segments), vs base-only standalone engines."""
    system = CovidKG(CovidKGConfig(ranker=ranker))
    system.ingest(papers)
    step = len(papers) // num_segments
    install_segments(system.search_corpus,
                     range(0, len(papers) + 1, step))
    assert len(system.search_corpus.columnar_index().segments) == \
        num_segments
    engines = (system.all_fields, system.title_abstract, system.tables)
    assert all(engine.corpus is system.search_corpus for engine in engines)

    standalone = [
        engine_cls(FunctionRegistry(), ranker=ranker)
        for engine_cls in (AllFieldsEngine, TitleAbstractCaptionEngine,
                           TableSearchEngine)
    ]
    for engine in standalone:
        engine.add_papers(system.ingested_papers())
    assert len({id(engine.corpus) for engine in standalone}) == 3

    shared_pages = _all_pages(*engines)
    assert shared_pages == _all_pages(*standalone)
    stages = {stage for page in shared_pages for stage in page[2]}
    assert f"$columnar({ranker})" in stages  # kernel queries ran ...
    assert "$function" in stages             # ... and so did phrases
    assert system.search_corpus.merge_segments() is (num_segments > 1)
    assert _all_pages(*engines) == shared_pages  # the merged index too


def _count_analysis(monkeypatch):
    calls = []

    def counting(paper):
        calls.append(paper["paper_id"])
        return build_search_document(paper)

    monkeypatch.setattr(corpus_module, "build_search_document", counting)
    return calls


def test_ingest_and_load_analyse_each_paper_once(papers, tmp_path,
                                                 monkeypatch):
    calls = _count_analysis(monkeypatch)
    system = CovidKG()
    system.ingest(papers[:20])
    expected = [paper["paper_id"] for paper in papers[:20]]
    assert calls == expected

    save_system(system, tmp_path / "saved")
    calls.clear()
    loaded = load_system(tmp_path / "saved")
    assert sorted(calls) == sorted(expected)
    assert loaded.search_corpus.tfidf.num_documents == 20
    # One lazy index build serves all three engines.
    loaded.all_fields.search("vaccine")
    index = loaded.search_corpus.columnar_index()
    loaded.title_abstract.search(abstract="vaccine")
    loaded.tables.search("vaccine")
    assert loaded.search_corpus.columnar_index() is index


def test_field_text_joins_list_values():
    document = {"search": {"title": ["spike protein", "vaccine"],
                           "abstract": "plain"}}
    assert field_text(document, "search.title") == "spike protein vaccine"
    assert field_text(document, "search.abstract") == "plain"
    assert field_text(document, "search.missing") == ""
    assert field_text({"search": "flat"}, "search.title") == ""


def test_list_valued_field_counts_the_same_everywhere(papers, monkeypatch):
    """Regression: statistics used to skip list-valued fields while the
    columnar index joined them, so the index could match and rank text
    that document frequencies and BM25 ``avgdl`` had never counted."""

    def listy(paper):
        document = build_search_document(paper)
        document["search"]["title"] = document["search"]["title"].split()
        return document

    monkeypatch.setattr(corpus_module, "build_search_document", listy)
    corpus = SearchCorpus()
    corpus.add_papers(papers[:10])
    columns = corpus.columnar_index().segments[0].cols
    title = columns.fields["search.title"]
    assert int(title.doc_lengths.sum()) > 0
    assert corpus.field_stats.average_length("search.title") == \
        title.doc_lengths.sum() / 10
    for stemmed in title.stem_index:
        assert corpus.tfidf.document_frequency(stemmed) > 0

