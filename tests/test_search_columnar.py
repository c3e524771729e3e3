"""The columnar ranking kernels: byte-identity, fallback, invalidation.

The contract under test is strict: for every query the kernel accepts,
the result page must be *byte-identical* to the scalar ``$function``
pipeline — same paper ids, same float scores (not approximately: the
kernel reproduces the scalar arithmetic op for op), same tie-break
order.  Queries the kernel cannot express must fall back to the scalar
path silently.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.matching import compile_filter
from repro.search import columnar
from repro.search.all_fields import AllFieldsEngine
from repro.search.indexing import ALL_SEARCH_FIELDS
from repro.search.query import parse_query
from repro.search.ranking import RankingFunction
from repro.search.table_search import TableSearchEngine
from repro.search.title_abstract import TitleAbstractCaptionEngine
from tests.segment_layouts import install_segments

WORDS = ("covid vaccine vaccinated spike protein trial mask masks "
         "transmission antibody variant lockdown serology genome "
         "mutation immunity dose efficacy symptom fever cough "
         "hospital icu").split()

QUERIES = [
    "covid",                 # single common term
    "vaccine trial",         # multi-term, proximity bonus in play
    "mask transmission icu", # three terms, sparse co-occurrence
    "vaccin",                # stem that prefixes many corpus words
    "zebra",                 # no matches at all
    "covid-19",              # punctuation: must fall back, still agree
    "19",                    # numeric term
]


def _make_paper(rng: random.Random, i: int) -> dict:
    def text(n):
        return " ".join(rng.choice(WORDS) for _ in range(n))
    return {
        "paper_id": f"p{i:05d}",
        "title": text(rng.randint(3, 8)),
        "abstract": text(rng.randint(10, 40)),
        "body_text": [{"section": "s", "text": text(rng.randint(20, 90))}],
        "publish_time": f"20{rng.randint(19, 22)}-01-01",
        "journal": "J",
        "authors": [{"first": "A", "last": "B"}],
        "tables": [{"table_id": f"t{i}", "caption": text(4),
                    "rows": [{"cells": [{"text": text(2)}]}]}]
        if rng.random() < 0.5 else [],
        "figures": [{"caption": text(3)}] if rng.random() < 0.5 else [],
    }


def _build(engine_cls, num_papers=120, seed=11, num_segments=1, **kwargs):
    """An engine over ``num_papers`` generated papers.

    ``num_segments > 1`` serves them from that many equal slices: a
    base segment plus ``num_segments - 1`` delta segments over the very
    same rows.
    """
    rng = random.Random(seed)
    engine = engine_cls(**kwargs)
    engine.add_papers([_make_paper(rng, i) for i in range(num_papers)])
    if num_segments > 1:
        install_segments(engine.corpus, [num_papers * k // num_segments
                                         for k in range(num_segments + 1)])
    return engine


def _page(results):
    return [(hit.paper_id, hit.score) for hit in results.results]


def _stages(results):
    return [stats.stage for stats in results.stage_stats]


# -- differential: kernel vs scalar vs full sort ---------------------------

@pytest.mark.parametrize("num_segments", [1, 3, 16])
def test_kernel_is_byte_identical_to_scalar(num_segments):
    """Base-only index, base + 2 deltas and base + 15 deltas:
    kernel ≡ scalar ≡ full sort ≡ the merged rebuild."""
    engine = _build(AllFieldsEngine, num_segments=num_segments)
    assert len(engine.corpus.columnar_index().segments) == num_segments
    kernel_pages = {}
    for query in QUERIES:
        for page in (1, 2, 3):
            kernel = engine.search(query, page=page)
            engine.use_columnar = False
            scalar = engine.search(query, page=page)
            engine.full_sort = True
            reference = engine.search(query, page=page)
            engine.full_sort = False
            engine.use_columnar = True

            assert _page(kernel) == _page(scalar), (query, page)
            assert _page(kernel) == _page(reference), (query, page)
            assert kernel.total_matches == scalar.total_matches
            kernel_pages[query, page] = _page(kernel)

    assert engine.corpus.merge_segments() == (num_segments > 1)
    assert len(engine.corpus.columnar_index().segments) == 1
    for (query, page), want in kernel_pages.items():
        assert _page(engine.search(query, page=page)) == want, (query, page)


#: Spellings ``IGNORECASE`` and ``str.casefold`` disagree on: the regex
#: holds İ and ı equal to i, and ſ to s, but never expands ß or ﬁ into
#: two letters.  Queried by their ASCII spelling.
FOLD_WORDS = ["İnfluenza", "Remdesıvirq", "Straßeqq", "ﬁbrosisqq",
              "Tranſmission"]
FOLD_QUERIES = ["influenza", "remdesivirq", "strasseqq", "fibrosisqq",
                "transmission"]

#: One generated paper: title, abstract, body and table-caption words
#: (an empty caption list means no table) and a publication year.
_PAPER = st.tuples(
    *[st.lists(st.sampled_from(WORDS + FOLD_WORDS), min_size=low,
               max_size=high)
      for low, high in ((1, 4), (0, 10), (5, 20), (0, 4))],
    st.integers(min_value=2019, max_value=2022),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_PAPER, min_size=10, max_size=40),
       st.lists(st.sampled_from(WORDS + FOLD_QUERIES + ["vaccin", "zebra"]),
                min_size=1, max_size=3))
def test_every_kernel_candidate_is_the_scalar_match_and_score(papers,
                                                              words):
    """Not just the page: the kernel's whole candidate set is the scalar
    ``$match``'s, and every candidate's score ``==`` the scalar closure's."""
    engine = AllFieldsEngine()
    engine.add_papers([{
        "paper_id": f"p{i:03d}", "title": " ".join(title),
        "abstract": " ".join(abstract),
        "body_text": [{"section": "s", "text": " ".join(body)}],
        "publish_time": f"{year}-01-01", "journal": "J",
        "authors": [{"first": "A", "last": "B"}],
        "tables": [{"table_id": f"t{i}", "caption": " ".join(caption),
                    "rows": [{"cells": [{"text": " ".join(caption)}]}]}]
        if caption else [],
        "figures": [],
    } for i, (title, abstract, body, caption, year) in enumerate(papers)])
    parsed = parse_query(" ".join(words))
    match_plan = columnar.MatchPlan.terms_over_fields(parsed,
                                                      ALL_SEARCH_FIELDS)
    spec = columnar.build_query_spec(parsed, match_plan, ALL_SEARCH_FIELDS,
                                     engine.ranking, ALL_SEARCH_FIELDS)
    assert spec is not None
    (segment,) = engine.corpus.columnar_index().segments
    total, partials = columnar.score_segment(segment.cols, spec,
                                             top_k=segment.num_rows)

    matched = compile_filter(match_plan.match_document())
    rank = engine.ranking.scorer(parsed, ALL_SEARCH_FIELDS)
    want = {row: rank(document)
            for row, document in enumerate(segment.documents)
            if matched(document)}
    assert total == len(partials) == len(want)
    assert {row: score for score, _paper_id, row in partials} == want


def test_kernel_engages_for_plain_queries():
    engine = _build(AllFieldsEngine)
    results = engine.search("covid vaccine")
    assert any("columnar" in stage for stage in _stages(results))
    assert "$columnar(tfidf)" in _stages(results)


def test_title_abstract_and_table_engines_take_the_kernel():
    for engine_cls, kwargs in [
        (TableSearchEngine, {}),
        (TitleAbstractCaptionEngine, {}),
    ]:
        engine = _build(engine_cls, **kwargs)
        if engine_cls is TitleAbstractCaptionEngine:
            kernel = engine.search(title="covid", abstract="vaccine trial")
            engine.use_columnar = False
            scalar = engine.search(title="covid", abstract="vaccine trial")
        else:
            kernel = engine.search("covid protein")
            engine.use_columnar = False
            scalar = engine.search("covid protein")
        engine.use_columnar = True
        assert any("columnar" in stage for stage in _stages(kernel))
        assert _page(kernel) == _page(scalar)


# -- fallback: queries the kernel cannot express ---------------------------

def test_quoted_phrase_falls_back_to_scalar():
    engine = _build(AllFieldsEngine)
    results = engine.search('"vaccine trial"')
    assert not any("columnar" in stage for stage in _stages(results))
    engine.use_columnar = False
    assert _page(engine.search('"vaccine trial"')) == _page(results)


def test_expander_falls_back_to_scalar():
    class FakeExpander:
        def expand(self, term):
            return [("immunization", 0.5)] if term == "vaccine" else []

    engine = _build(AllFieldsEngine)
    engine.ranking.expander = FakeExpander()
    results = engine.search("vaccine")
    assert not any("columnar" in stage for stage in _stages(results))


def test_custom_ranking_subclass_falls_back_to_scalar():
    engine = _build(AllFieldsEngine)

    class Doubled(RankingFunction):
        def _word_score(self, tf, planned):
            return 2.0 * super()._word_score(tf, planned)

    engine.ranking = Doubled(engine.tfidf)
    results = engine.search("covid")
    assert not any("columnar" in stage for stage in _stages(results))


def test_full_sort_disables_the_kernel():
    engine = _build(AllFieldsEngine)
    engine.full_sort = True
    results = engine.search("covid")
    assert not any("columnar" in stage for stage in _stages(results))


# -- invalidation on docstore mutation -------------------------------------

def test_index_is_reused_until_the_store_moves():
    engine = _build(AllFieldsEngine, num_papers=40)
    engine.search("covid")
    first = engine.corpus.columnar_index()
    engine.search("vaccine")
    assert engine.corpus.columnar_index() is first


def test_mutation_invalidates_and_new_documents_rank():
    engine = _build(AllFieldsEngine, num_papers=40)
    engine.search("covid")
    stale = engine.corpus.columnar_index()

    rng = random.Random(99)
    paper = _make_paper(rng, 9999)
    paper["title"] = "zebra zebra zebra"
    engine.add_paper(paper)

    results = engine.search("zebra")
    assert engine.corpus.columnar_index() is not stale
    assert any(hit.paper_id == "p09999" for hit in results.results)
    engine.use_columnar = False
    assert _page(engine.search("zebra")) == _page(results)


# -- query-spec mechanics --------------------------------------------------

def test_query_spec_is_picklable():
    import pickle

    parsed = parse_query("covid vaccine")
    engine = _build(AllFieldsEngine, num_papers=30)
    spec = columnar.build_query_spec(
        parsed,
        columnar.MatchPlan.terms_over_fields(parsed, ALL_SEARCH_FIELDS),
        ALL_SEARCH_FIELDS,
        engine.ranking,
        set(ALL_SEARCH_FIELDS),
    )
    assert spec is not None
    assert pickle.loads(pickle.dumps(spec)) == spec
    # The kernel spec is the scalar scorer's plan, not a re-derivation.
    assert spec.plan == engine.ranking.query_plan(parsed, ALL_SEARCH_FIELDS)


def test_spec_rejected_for_unfitted_model():
    engine = AllFieldsEngine()
    parsed = parse_query("covid")
    spec = columnar.build_query_spec(
        parsed,
        columnar.MatchPlan.terms_over_fields(parsed, ALL_SEARCH_FIELDS),
        ALL_SEARCH_FIELDS,
        engine.ranking,
        set(ALL_SEARCH_FIELDS),
    )
    assert spec is None


# -- delta segments and the snapshot-atomicity regression ------------------

def _append_papers(engine, start, count, seed=77, title=None):
    rng = random.Random(seed)
    for i in range(start, start + count):
        paper = _make_paper(rng, i)
        if title is not None:
            paper["title"] = title
        engine.add_paper(paper)


def test_append_only_mutation_extends_into_delta_segments():
    engine = _build(AllFieldsEngine, num_papers=60)
    engine.search("covid")
    base = engine.corpus.columnar_index()
    assert base.delta_segments == 0

    _append_papers(engine, 60, 15)
    kernel_pages = [_page(engine.search(q)) for q in QUERIES]
    extended = engine.corpus.columnar_index()

    # Incremental, not a rebuild: base segment arrays shared, only the
    # 15 new rows tokenized, into the delta tier.
    assert extended is not base
    assert extended.segments[0] is base.segments[0]
    assert extended.delta_rows == 15
    assert extended.num_rows == 75

    # A run more than half their size folds the 15 in rather than
    # adding a segment; the base is still the same object.
    _append_papers(engine, 75, 8, seed=78)
    kernel_pages = [_page(engine.search(q)) for q in QUERIES]
    folded = engine.corpus.columnar_index()
    assert folded.segments[0] is base.segments[0]
    assert folded.delta_rows == 23
    assert [s.num_rows for s in folded.segments] == [60, 23]
    assert [s.num_rows for s in extended.segments] == [60, 15]

    # Byte identity against the scalar path and an offline rebuild.
    engine.use_columnar = False
    assert [_page(engine.search(q)) for q in QUERIES] == kernel_pages
    engine.use_columnar = True
    offline = _build(AllFieldsEngine, num_papers=60)
    _append_papers(offline, 60, 15)
    _append_papers(offline, 75, 8, seed=78)
    offline.corpus._columnar = None  # force a from-scratch build
    assert [_page(offline.search(q)) for q in QUERIES] == kernel_pages


def _columns(segment):
    """Every array of a segment as plain Python values (for equality)."""
    def plain(value):
        return value.tolist() if hasattr(value, "tolist") else value

    cols = segment.cols
    return (segment.offset,
            [plain(getattr(cols, slot)) for slot in cols.__slots__
             if slot != "fields"],
            {name: [plain(getattr(fc, slot)) for slot in fc.__slots__]
             for name, fc in cols.fields.items()})


def test_extend_copies_no_rows(monkeypatch):
    """Regression: a 4-row extend of a 1,000-row index deep-copied all
    1,004 stored documents to keep the last four.  The delta holds the
    store's own rows: nothing is copied."""
    import repro.docstore.collection as collection_module

    engine = _build(AllFieldsEngine, num_papers=1000)
    base = engine.corpus.columnar_index()
    _append_papers(engine, 1000, 4)
    appended = engine.collection.find({}).to_list()[1000:]
    assert [doc["paper_id"] for doc in appended] == \
        [f"p{i:05d}" for i in range(1000, 1004)]

    copied = []
    real_copy = collection_module.deep_copy_document
    monkeypatch.setattr(
        collection_module, "deep_copy_document",
        lambda document: copied.append(document) or real_copy(document),
    )
    extended = base.extend(engine.collection, engine.corpus._stamp())
    monkeypatch.undo()

    assert copied == []
    assert extended.segments[:-1] == base.segments
    delta = extended.segments[-1]
    assert delta.documents == appended
    assert all(row is stored for row, stored in zip(
        delta.documents, list(engine.collection.scan())[1000:]))
    assert _columns(delta) == _columns(
        columnar.Segment(appended, base.field_names, 1000)
    )


def test_equal_scores_across_base_and_delta_order_like_a_rebuild():
    """Ties merge by ``paper_id``, not by which segment holds the row."""
    template = _make_paper(random.Random(3), 0)
    template["title"] = "zebra zebra"

    def clones(numbers):
        return [{**template, "paper_id": f"tie{n:02d}"} for n in numbers]

    def pages():
        return [_page(engine.search("zebra", page=p)) for p in (1, 2)]

    engine = _build(AllFieldsEngine, num_papers=30)
    engine.add_papers(clones(range(13, 0, -2)))  # odd ids in the base ...
    engine.search("zebra")
    engine.add_papers(clones(range(12, -1, -2)))  # ... even ids in a delta
    with_delta = pages()
    assert engine.corpus.columnar_index().delta_rows == 7
    assert len({score for page in with_delta for _, score in page}) == 1
    assert [paper_id for page in with_delta for paper_id, _ in page] == \
        [f"tie{n:02d}" for n in range(14)]

    engine.corpus._columnar = None  # force a from-scratch build
    assert pages() == with_delta
    assert engine.corpus.columnar_index().delta_rows == 0
    engine.use_columnar = False
    assert pages() == with_delta


def test_merge_segments_is_byte_identical_to_delta_serving():
    engine = _build(AllFieldsEngine, num_papers=50)
    engine.search("covid")
    _append_papers(engine, 50, 12)
    with_deltas = [_page(engine.search(q)) for q in QUERIES]
    assert engine.corpus.delta_rows == 12

    assert engine.corpus.merge_segments() is True
    merged = engine.corpus.columnar_index()
    assert merged.delta_segments == 0
    assert engine.corpus.delta_rows == 0
    assert [_page(engine.search(q)) for q in QUERIES] == with_deltas
    # Idempotent: nothing left to fold.
    assert engine.corpus.merge_segments() is False


def test_non_append_mutations_rebuild_instead_of_extending():
    engine = _build(AllFieldsEngine, num_papers=40)
    engine.search("covid")
    base = engine.corpus.columnar_index()
    # A version bump without a matching document append — the
    # lockstep heuristic must refuse to extend.
    engine.collection.advance_version(engine.collection.version + 5)
    engine.search("covid")
    rebuilt = engine.corpus.columnar_index()
    assert rebuilt is not base
    assert rebuilt.delta_segments == 0


def test_mutation_between_snapshot_and_kernel_serves_one_generation(
        monkeypatch):
    """Regression: the stamp and the arrays must be captured together.

    A writer landing between the eligibility check and the kernel run
    used to let one request mix generations (pre-mutation arrays,
    post-mutation stamp).  The pipeline now takes one immutable
    ``(columns, stamp)`` snapshot up front; a mutation mid-request
    leaves the in-flight page byte-identical to the pre-mutation
    answer.
    """
    engine = _build(AllFieldsEngine, num_papers=40)
    baseline = engine.search("covid")
    real_rank = AllFieldsEngine._rank_columnar
    fired = []

    def racy_rank(self, index, spec, skip, top_k):
        if not fired:
            fired.append(True)
            # The worst-case writer: lands after the snapshot was
            # taken, before the kernel reads a single row.
            _append_papers(self, 8000, 3, seed=5,
                           title="covid covid covid covid")
        return real_rank(self, index, spec, skip, top_k)

    monkeypatch.setattr(AllFieldsEngine, "_rank_columnar", racy_rank)
    racy = engine.search("covid")
    monkeypatch.setattr(AllFieldsEngine, "_rank_columnar", real_rank)

    assert fired  # the mutation really was injected mid-request
    assert _page(racy) == _page(baseline)
    assert racy.total_matches == baseline.total_matches

    # The *next* request sees the new generation, ranked identically
    # to the scalar path.
    fresh = engine.search("covid")
    assert any(hit.paper_id == "p08000" for hit in fresh.results)
    engine.use_columnar = False
    assert _page(engine.search("covid")) == _page(fresh)
