"""Tests for query parsing, ranking features, and snippets."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.search import columnar
from repro.search.columnar import MatchPlan
from repro.search.indexing import ALL_SEARCH_FIELDS
from repro.search.query import parse_query
from repro.search.ranking import RankingFunction, min_window
from repro.search.snippets import (
    SNIPPET_RADIUS,
    highlight,
    snippet,
)
from repro.search.synonyms import SynonymExpander
from repro.docstore.matching import matches
from repro.text.stemmer import stem
from repro.text.tfidf import TfIdfModel
from repro.text.tokenizer import tokenize


class TestParseQuery:
    def test_loose_terms_are_stemmed_patterns(self):
        parsed = parse_query("masks")
        assert parsed.terms[0].exact is False
        assert parsed.terms[0].regex().search("Masking policies")
        assert parsed.terms[0].regex().search("masks")

    def test_quoted_phrase_is_exact(self):
        parsed = parse_query('"mechanical ventilation"')
        term = parsed.terms[0]
        assert term.exact is True
        assert term.regex().search("under mechanical ventilation care")
        assert not term.regex().search("mechanical and ventilation")

    def test_exact_does_not_match_inflections(self):
        parsed = parse_query('"mask"')
        assert not parsed.terms[0].regex().search("masks")

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            parse_query("   ")


class TestMatchFilter:
    DOC = {"search": {"title": "Masks reduce transmission",
                      "abstract": "We study respirators."}}

    def test_single_term_any_field(self):
        parsed = parse_query("masks")
        filt = MatchPlan.terms_over_fields(
            parsed, ["search.title", "search.abstract"]).match_document()
        assert matches(self.DOC, filt)

    def test_and_across_terms(self):
        parsed = parse_query("masks respirators")
        filt = MatchPlan.terms_over_fields(
            parsed, ["search.title", "search.abstract"]).match_document()
        assert matches(self.DOC, filt)
        missing = parse_query("masks ventilators")
        filt2 = MatchPlan.terms_over_fields(
            missing, ["search.title", "search.abstract"]).match_document()
        assert not matches(self.DOC, filt2)

    def test_field_filter_inclusive_semantics(self):
        parsed = parse_query("masks ventilators")
        # At least ONE term must hit the given field.
        assert matches(self.DOC, MatchPlan.fields_over_terms(
            [("search.title", parsed)]).match_document())
        absent = parse_query("ventilators oxygen")
        assert not matches(self.DOC, MatchPlan.fields_over_terms(
            [("search.title", absent)]).match_document())


# -- one match statement, two executors -------------------------------------

@pytest.fixture(scope="module")
def generated_engine():
    from repro.corpus.generator import CorpusGenerator
    from repro.search.all_fields import AllFieldsEngine

    engine = AllFieldsEngine()
    engine.add_papers(CorpusGenerator().papers(40))
    return engine


def _matched_ids(engine, plan):
    return sorted(document["paper_id"] for document in
                  engine.collection.find(plan.match_document()))


#: Lowercase alphanumerics only (kernel-eligible); most hit some of the
#: 40 generated papers, "zebra" none, "vaccin" is a stem-prefix.
_KERNEL_WORDS = st.sampled_from(
    "vaccine vaccin efficacy doses fever patients cohort children "
    "masks transmission 95 2 symptomatic infection zebra".split())
_FIELDS = st.lists(st.sampled_from(ALL_SEARCH_FIELDS), min_size=1,
                   max_size=3, unique=True)


@settings(max_examples=60, deadline=None)
@given(words=st.lists(_KERNEL_WORDS, min_size=1, max_size=3),
       fields=_FIELDS, over_terms=st.booleans())
def test_match_document_finds_the_kernels_candidates(
        generated_engine, words, fields, over_terms):
    """``collection.find(plan.match_document())`` ≡ the kernel's rows,
    for both plan shapes."""
    engine = generated_engine
    parsed = parse_query(" ".join(words))
    plan = (MatchPlan.fields_over_terms([(name, parsed)
                                         for name in fields])
            if over_terms else MatchPlan.terms_over_fields(parsed, fields))
    spec = columnar.build_query_spec(parsed, plan, fields, engine.ranking,
                                     ALL_SEARCH_FIELDS)
    assert spec is not None
    index = engine.corpus.columnar_index()
    total, ranked = index.rank(spec, index.num_rows)
    assert total == len(ranked)
    assert sorted(paper_id for _score, paper_id, _row in ranked) \
        == _matched_ids(engine, plan)


def test_match_document_goldens(generated_engine):
    """Matched sets recorded at the last commit that built the ``$match``
    document with ``match_filter`` / ``field_match_filter``."""
    def cord(*numbers):
        return [f"cord-{number:07d}" for number in numbers]

    phrase = parse_query('"side effects" fever')
    assert _matched_ids(generated_engine, MatchPlan.terms_over_fields(
        phrase, ALL_SEARCH_FIELDS)) == cord(18, 19, 22, 24)
    assert _matched_ids(generated_engine, MatchPlan.fields_over_terms([
        ("search.table_captions", parse_query('"side effects" doses')),
        ("search.abstract", parse_query("cohort")),
    ])) == cord(3, 5, 14, 18, 22, 24, 37)

    for query, literal, expanded in [
            ("inoculation fever", [], cord(17, 18, 19, 22, 24)),
            ("efficacy children", cord(12, 15, 22, 26),
             cord(2, 12, 15, 22, 26))]:
        parsed = parse_query(query)
        assert _matched_ids(generated_engine, MatchPlan.terms_over_fields(
            parsed, ALL_SEARCH_FIELDS)) == literal
        assert _matched_ids(generated_engine, MatchPlan.terms_over_fields(
            parsed, ALL_SEARCH_FIELDS, expander=SynonymExpander()
        )) == expanded


class TestMinWindow:
    def test_adjacent_terms(self):
        assert min_window([[0], [1]]) == 2

    def test_far_terms(self):
        assert min_window([[0], [10]]) == 11

    def test_picks_best_combination(self):
        assert min_window([[0, 50], [51], [49]]) == 3

    def test_missing_term_returns_none(self):
        assert min_window([[0], []]) is None

    def test_single_term(self):
        assert min_window([[5, 9]]) == 1


class TestRankingFunction:
    def build(self, documents):
        tfidf = TfIdfModel()
        for text in documents:
            tfidf.add_document_tokens(stem(t) for t in tokenize(text))
        return RankingFunction(tfidf)

    def test_title_outweighs_body(self):
        ranking = self.build(["masks work", "other text entirely"])
        parsed = parse_query("masks")
        doc_title = {"search": {"title": "masks work", "body": ""}}
        doc_body = {"search": {"title": "", "body": "masks work"}}
        rank = ranking.scorer(parsed)
        assert rank(doc_title) > rank(doc_body)

    def test_proximity_rewards_adjacency(self):
        ranking = self.build(["oxygen support needed"])
        parsed = parse_query("oxygen support")
        near = "oxygen support was provided immediately on arrival"
        far = ("oxygen was administered early and later additional "
               "breathing support was provided")
        # Same words once each: only the body window differs.
        rank = ranking.scorer(parsed)
        assert rank({"search": {"body": near}}) > (
            rank({"search": {"body": far}})
        )

    def test_static_score_rewards_recent_and_tables(self):
        ranking = self.build(["x"])
        older = {"static_rank": {"year": 2020, "num_tables": 0}}
        newer = {"static_rank": {"year": 2022, "num_tables": 3}}
        rank = ranking.scorer(parse_query("masks"))
        assert rank(newer) > rank(older)

    def test_rare_term_scores_higher_than_common(self):
        ranking = self.build(["masks masks", "masks again", "ventilator"])
        parsed_rare = parse_query("ventilator")
        parsed_common = parse_query("masks")
        doc = {"search": {"title": "masks ventilator", "body": ""}}
        assert ranking.scorer(parsed_rare)(doc) > (
            ranking.scorer(parsed_common)(doc)
        )


class TestSnippets:
    def test_highlight_wraps_matches(self):
        parsed = parse_query("masks")
        assert highlight("Masks matter", parsed) == "[[Masks]] matter"

    def test_snippet_centers_on_match(self):
        parsed = parse_query("ventilator")
        text = ("x " * 100) + "the ventilator worked" + (" y" * 100)
        excerpt = snippet(text, parsed)
        assert "[[ventilator]]" in excerpt
        assert excerpt.startswith("...")
        assert excerpt.endswith("...")
        assert len(excerpt) < 260

    def test_snippet_empty_when_no_match(self):
        parsed = parse_query("absentterm")
        assert snippet("nothing to see here", parsed) == ""

    def test_snippet_preserves_whole_words(self):
        parsed = parse_query("needle")
        text = "supercalifragilistic needle expialidocious"
        excerpt = snippet(text, parsed, radius=3)
        assert "supercalifragilistic" in excerpt


@given(st.lists(st.lists(st.integers(0, 50), min_size=1, max_size=5),
                min_size=1, max_size=4))
def test_min_window_bounds(positions):
    window = min_window(positions)
    assert window is not None
    flat = [p for ps in positions for p in ps]
    assert 1 <= window <= max(flat) - min(flat) + 1


# -- one compiled matcher per query ≡ the term-by-term scan -----------------

#: Each family's members collide: a shared stem, one a prefix of
#: another, a phrase starting with a single-word member — so matches
#: that start at the same character and end at different ones are the
#: common case, not the rare one.
_MATCHER_FAMILIES = [
    ["side", "sides", "side effects", "Side", "SIDE EFFECTS of"],
    ["mask", "masks", "mask of", "MASKED", "Masks"],
    ["covid", "covid-19", "COVID-19", "covid 19", "Covid"],
    ["vaccin", "vaccine", "vaccinated", "Vaccine", "vaccine dose"],
]
_MATCHER_GLUE = [" ", " ", " ", "  ", ", ", "-", "\n", " ("]


@st.composite
def _text_and_query(draw):
    """A short text and 1–4 mixed loose / quoted terms of one family."""
    family = draw(st.sampled_from(_MATCHER_FAMILIES)) + ["of", "the"]
    pieces = draw(st.lists(st.sampled_from(family), min_size=1, max_size=8))
    glue = draw(st.lists(st.sampled_from(_MATCHER_GLUE),
                         min_size=len(pieces), max_size=len(pieces)))
    terms = [
        f'"{term}"' if draw(st.booleans()) else term.split()[0]
        for term in draw(st.lists(st.sampled_from(family),
                                  min_size=1, max_size=4))
    ]
    text = "".join(piece + sep for piece, sep in zip(pieces, glue))
    return text, parse_query(" ".join(terms))


def _term_regexes(parsed):
    return [re.compile(term.pattern, re.IGNORECASE) for term in parsed.terms]


def _reference_span(text, parsed, pos=0):
    """The reference: every term's own regex, leftmost start wins and
    the earlier term keeps a tie."""
    best = None
    for regex in _term_regexes(parsed):
        match = regex.search(text, pos)
        if match and (best is None or match.start() < best[0]):
            best = (match.start(), match.end())
    return best


def _reference_highlight(text, parsed):
    pieces, pos = [], 0
    while (span := _reference_span(text, parsed, pos)) is not None:
        pieces += [text[pos:span[0]], "[[", text[span[0]:span[1]], "]]"]
        pos = span[1]
    return "".join(pieces) + text[pos:]


def _reference_snippet(text, parsed, radius):
    span = _reference_span(text, parsed)
    if span is None:
        return ""
    start = max(0, span[0] - radius)
    end = min(len(text), span[1] + radius)
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    while end < len(text) and not text[end].isspace():
        end += 1
    return ("..." if start > 0 else "") \
        + _reference_highlight(text[start:end].strip(), parsed) \
        + ("..." if end < len(text) else "")


@settings(max_examples=300)
@given(_text_and_query(), st.sampled_from([3, 20, SNIPPET_RADIUS]))
# Equal-start ties with different ends, either term first.
@example(("side effects of", parse_query('"side" "side effects"')), 3)
@example(("side effects of", parse_query('"side effects" "side"')), 3)
@example(("the sides", parse_query('"side" side')), 3)
# A later term matching further left; a shared stem; case folding.
@example(("Masks of COVID-19 vaccinated", parse_query("vaccin covid mask")),
         3)
@example(("MASKED masks mask", parse_query('masks "mask"')), 20)
def test_query_matcher_equals_the_per_term_scan(text_and_query, radius):
    text, parsed = text_and_query
    assert highlight(text, parsed) == _reference_highlight(text, parsed)
    assert snippet(text, parsed, radius) == \
        _reference_snippet(text, parsed, radius)


def test_term_and_query_regexes_compile_once():
    parsed = parse_query('masks "side effects" icu')
    assert all(term.regex() is term.regex() for term in parsed.terms)
    assert parsed.matcher is parsed.matcher
