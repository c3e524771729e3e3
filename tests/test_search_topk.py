"""Differential tests for top-k ranked retrieval.

The acceptance bar: the top-k paths (bounded heap on the scalar
pipeline, per-segment kernels merged across base + delta segments) must
return result pages **byte-identical** (order, scores, snippets, totals)
to the full-sort reference.
"""

import pytest

from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.search.all_fields import AllFieldsEngine
from repro.search.engine import PAGE_SIZE
from tests.segment_layouts import install_segments

QUERIES = ["vaccine", "covid symptoms", "antibody trial", "dosage"]


@pytest.fixture(scope="module")
def corpus():
    config = GeneratorConfig(seed=77, papers_per_week=15,
                             tables_per_paper=(0, 2))
    return CorpusGenerator(config).papers(70)


def build_engine(corpus, full_sort=False):
    engine = AllFieldsEngine()
    engine.full_sort = full_sort
    engine.add_papers(corpus)
    return engine


def page_tuple(results):
    """Everything a rendered page shows, as comparable data."""
    return [
        (hit.paper_id, hit.title, hit.score, hit.snippets, hit.extras)
        for hit in results
    ]


def test_topk_matches_full_sort_single_shard(corpus):
    reference = build_engine(corpus, full_sort=True)
    topk = build_engine(corpus)
    for use_columnar in (True, False):  # kernel top-k, then scalar heap
        topk.use_columnar = use_columnar
        for query in QUERIES:
            want = reference.search(query, page=1)
            got = topk.search(query, page=1)
            assert page_tuple(got.results) == page_tuple(want.results)
            assert got.total_matches == want.total_matches


def test_topk_matches_full_sort_across_delta_segments(corpus):
    """The headline differential: kernels looped over a base and two (or
    fifteen) delta segments vs. the full sort, byte-identical across
    pages — and again after the deltas are merged away."""
    reference = build_engine(corpus, full_sort=True)
    wanted = {(query, page): reference.search(query, page=page)
              for query in QUERIES for page in (1, 2, 3)}
    layouts = {
        2: (0, 30, 50, 70),
        15: (0, 10, *range(14, 71, 4)),
    }
    for deltas, bounds in layouts.items():
        segmented = build_engine(corpus)
        install_segments(segmented.corpus, bounds)
        assert segmented.corpus.columnar_index().delta_segments == deltas

        for merged in (False, True):
            if merged:
                assert segmented.corpus.merge_segments()
                assert segmented.corpus.columnar_index().delta_segments == 0
            for (query, page), want in wanted.items():
                got = segmented.search(query, page=page)
                assert page_tuple(got.results) == \
                    page_tuple(want.results), (
                    f"page mismatch for {query!r} page {page} "
                    f"({deltas} deltas, merged={merged})"
                )
                assert got.total_matches == want.total_matches
                assert got.num_pages == want.num_pages


def test_deterministic_tiebreak_orders_by_paper_id(corpus):
    """Equal scores order by paper_id ascending — storage layout can't
    leak into the page order."""
    engine = build_engine(corpus)
    results = engine.search("covid", page=1).results
    for earlier, later in zip(results, results[1:]):
        assert (earlier.score, earlier.paper_id) != \
               (later.score, later.paper_id)
        if earlier.score == later.score:
            assert earlier.paper_id < later.paper_id


def test_pagination_past_last_page_is_empty(corpus):
    engine = build_engine(corpus)
    first = engine.search("vaccine", page=1)
    beyond = first.num_pages + 1
    assert engine.search("vaccine", page=beyond).results == []


def test_topk_stage_reports_total_matches(corpus):
    engine = build_engine(corpus)
    results = engine.search("covid", page=1)
    assert results.total_matches >= len(results.results)
    assert len(results.results) <= PAGE_SIZE
    assert any(stat.stage.startswith("$sort")
               for stat in results.stage_stats)
