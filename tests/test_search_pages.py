"""Whole result pages: what they contain and what they are built from.

A kernel page is assembled from read-only views of the columnar
segments' stored rows (``ColumnarIndex.fetch``) and one compiled matcher
per query (``ParsedQuery.matcher``).  The contract under test: the wire
bytes of every page — snippets and ``extras["tables"]`` included — equal
the scalar ``$match → $project → $function`` pipeline's and the full
sort's, whatever the segment layout; nothing a caller can reach from a
page aliases a stored row; and a request compiles at most one regex per
term plus one for the query.  Quoted phrases never reach the kernels:
their pages come from the scalar pipeline, whose ``$project`` reads the
collection's stored rows — same bytes as the pipeline run over
``find``'s copies, stemmed by the memoized ``stem``.
"""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.docstore.collection import Collection
from repro.docstore.functions import FunctionRegistry
from repro.gateway.routes import encode_value
from repro.search import engine as engine_module
from repro.search.all_fields import AllFieldsEngine
from repro.search.corpus import SearchCorpus
from repro.search.table_search import TableSearchEngine
from repro.search.title_abstract import TitleAbstractCaptionEngine
from repro.text.stemmer import PorterStemmer, stem
from repro.text.tokenizer import tokenize
from tests.segment_layouts import install_segments

#: One, two and three kernel-eligible terms.  In the 60 generated papers
#: every one has more than two pages of matches in some engine, the
#: table words fill ``extras["tables"]`` and "patients cohort" matches no
#: table at all (the empty page).
QUERIES = ["vaccine", "patients cohort", "vaccine efficacy doses"]

#: Quoted terms fail the kernel planner.  A whole phrase (24 matches in
#: all_fields and tables: three pages), one quoted word beside a loose
#: one (proximity bonus; 40 matches), a phrase beside a loose word.
PHRASE_QUERIES = ['"vaccine efficacy"', '"patients" cohort',
                  '"vaccine efficacy" doses']


@pytest.fixture(scope="module")
def papers():
    # Short bodies keep the scalar reference (one regex + one scoring
    # pass per matched field) to a few seconds; tables stay full-size.
    return CorpusGenerator(GeneratorConfig(
        sections_per_paper=(1, 2), sentences_per_section=(2, 3),
    )).papers(60)


def _engines(papers, ranker="tfidf", num_segments=1):
    """The three engines on one corpus holding ``num_segments`` segments."""
    corpus = SearchCorpus()
    engines = [
        engine_cls(FunctionRegistry(), ranker=ranker, corpus=corpus)
        for engine_cls in (AllFieldsEngine, TitleAbstractCaptionEngine,
                           TableSearchEngine)
    ]
    corpus.add_papers(papers)
    install_segments(corpus, [len(papers) * k // num_segments
                              for k in range(num_segments + 1)])
    assert len(corpus.columnar_index().segments) == num_segments
    return corpus, engines


def _searches(engines, pages=(1, 2, 3), queries=QUERIES):
    """Every (label, SearchResults) of the query × page × engine grid."""
    all_fields, title_abstract, tables = engines
    for query in queries:
        for page in pages:
            yield (f"all_fields {query!r} p{page}",
                   all_fields.search(query, page=page))
            yield (f"tables {query!r} p{page}",
                   tables.search(query, page=page))
            yield (f"abstract {query!r} p{page}",
                   title_abstract.search(abstract=query, page=page))
            yield (f"title + caption {query!r} p{page}",
                   title_abstract.search(title="patients outcomes",
                                         caption=query, page=page))


def _wire(results) -> bytes:
    """The page's response bytes, timing stripped."""
    results.seconds = 0.0
    return encode_value(results)


def _wire_pages(engines, **kwargs):
    return {label: _wire(results)
            for label, results in _searches(engines, **kwargs)}


# -- whole pages: kernel ≡ scalar ≡ full sort, over every segment layout ----

@pytest.mark.parametrize("ranker", ["tfidf", "bm25"])
def test_whole_pages_are_byte_identical_on_every_path(papers, ranker):
    corpus, engines = _engines(papers, ranker)
    kernel = _wire_pages(engines)
    stages = {stats.stage for _, results in _searches(engines, pages=(1,))
              for stats in results.stage_stats}
    assert stages == {f"$columnar({ranker})", "$sort(top-k)"}
    assert sum(b'"results":[]' not in wire for wire in kernel.values()) \
        >= 20  # the grid is not vacuous: pages 2 and 3 exist too
    assert any(b'"tables":[{' in wire for wire in kernel.values())

    for engine in engines:
        engine.use_columnar = False
    assert _wire_pages(engines) == kernel  # scalar pipeline, top-k heap
    for engine in engines:
        engine.full_sort = True
    assert _wire_pages(engines) == kernel  # scalar pipeline, full $sort

    corpus, engines = _engines(papers, ranker, num_segments=3)
    assert _wire_pages(engines) == kernel  # base + 2 deltas
    assert corpus.merge_segments()
    assert _wire_pages(engines) == kernel  # the merged rebuild


# -- quoted phrases: the scalar pipeline over stored rows --------------------

@pytest.mark.parametrize("ranker", ["tfidf", "bm25"])
def test_quoted_phrase_pages_are_byte_identical_on_every_path(
        papers, ranker, monkeypatch):
    grid = {"queries": PHRASE_QUERIES, "pages": (1, 2)}
    corpus, engines = _engines(papers, ranker)
    stored = [json.dumps(document, sort_keys=True, default=str)
              for document in corpus.collection.scan()]
    top_k = _wire_pages(engines, **grid)
    stages = {stats.stage
              for _, results in _searches(engines, **grid)
              for stats in results.stage_stats}
    assert stages == {"$match(indexed)", "$project", "$function",
                      "$sort(top-k)"}
    # Not vacuous: most cells have a page 1 and the phrase has a page 2.
    assert sum(b'"results":[]' not in wire for wire in top_k.values()) >= 12
    assert b'"results":[]' not in top_k["all_fields '\"vaccine efficacy\"' p2"]

    # The same prefix over find()'s copies in place of the stored rows.
    real_aggregate = engine_module.aggregate
    over_copies = []

    def aggregate_over_find(source, stages, registry=None):
        if isinstance(source, Collection):
            over_copies.append(stages[0]["$match"])
            source = source.find(stages[0]["$match"]).to_list()
            stages = stages[1:]
        return real_aggregate(source, stages, registry)

    with monkeypatch.context() as patched:
        patched.setattr(engine_module, "aggregate", aggregate_over_find)
        assert _wire_pages(engines, **grid) == top_k
    assert len(over_copies) == len(top_k)

    for engine in engines:
        engine.full_sort = True
    assert _wire_pages(engines, **grid) == top_k  # full $sort
    assert [json.dumps(document, sort_keys=True, default=str)
            for document in corpus.collection.scan()] == stored

    _, engines = _engines(papers, ranker, num_segments=3)
    assert _wire_pages(engines, **grid) == top_k  # served from 3 segments


def test_memoized_stem_is_the_reference_stemmer_on_the_corpus(papers):
    corpus, _ = _engines(papers)
    tokens = {
        token
        for document in corpus.collection.scan()
        for text in document["search"].values()
        for token in tokenize(text)
    }
    assert len(tokens) > 500
    reference = PorterStemmer().stem
    assert {token: stem(token) for token in tokens} \
        == {token: reference(token) for token in tokens}


# -- no aliasing, no mutation ----------------------------------------------

def _row_snapshot(corpus):
    return [json.dumps(document, sort_keys=True, default=str)
            for segment in corpus.columnar_index().segments
            for document in segment.documents]


def _scribble(results) -> None:
    """Mutate everything a caller can reach from a page."""
    for hit in results.results:
        for table in hit.extras.get("tables", []):
            for row in table["rows"]:
                row[:] = ["scribbled"] * (len(row) + 1)
            table["rows"].append(["scribbled"])
            table.clear()
        hit.extras["scribbled"] = hit.snippets
        for name in list(hit.snippets):
            hit.snippets[name] = "scribbled"
        hit.snippets["scribbled"] = "scribbled"
    results.results.clear()


def test_pages_never_alias_or_mutate_segment_rows(papers):
    corpus, engines = _engines(papers, num_segments=3)
    rows = _row_snapshot(corpus)
    first = []
    for _, results in _searches(engines, pages=(1, 2)):
        first.append(_wire(results))
        _scribble(results)
    assert _row_snapshot(corpus) == rows
    assert [_wire(results)
            for _, results in _searches(engines, pages=(1, 2))] == first
    assert _row_snapshot(corpus) == rows

    # Two threads reading the same rows at once agree with each other
    # and with the single-threaded pages.
    seen: dict[int, list[bytes]] = {}

    def reader(number: int) -> None:
        seen[number] = [_wire(results) for _, results
                        in _searches(engines, pages=(1, 2))]

    threads = [threading.Thread(target=reader, args=(n,)) for n in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert seen[0] == seen[1] == first
    assert _row_snapshot(corpus) == rows


# -- one compile per term + one per query, whatever the page holds ---------

def test_kernel_request_compiles_each_regex_once(papers, monkeypatch):
    _, (all_fields, title_abstract, tables) = _engines(papers)
    requests = [
        lambda: all_fields.search("vaccine efficacy doses"),
        lambda: tables.search("vaccine efficacy doses"),
        lambda: title_abstract.search(abstract="patients cohort baseline"),
        lambda: title_abstract.search(title="patients", abstract="cohort",
                                      caption="table"),
    ]
    real_compile = re.compile
    calls: list[str] = []

    def counting_compile(pattern, flags=0):
        calls.append(pattern)
        return real_compile(pattern, flags)

    monkeypatch.setattr(re, "compile", counting_compile)
    for number, request in enumerate(requests):
        del calls[:]
        results = request()
        assert results.stage_stats[0].stage == "$columnar(tfidf)"
        # Three terms each; all but the AND of three fields fill a page.
        assert len(results.results) == 10 or (number == 3 and results.results)
        assert len(calls) <= 3 + 1, (number, calls)
