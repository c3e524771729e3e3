"""The columnar prefilter of the scalar pipeline is sound.

A query the kernels cannot rank — a quoted phrase, a synonym expansion,
a term with punctuation — still reads its candidate rows from the atom
dictionaries (``ColumnarIndex.candidate_ids``) and runs its ``$match``
on those alone.  The contract under test: every row the ``$match``
regexes accept is a candidate, so every page equals the one the
unindexed scan serves (``use_columnar = False``), over papers spelled in
mixed case and with the characters ``IGNORECASE`` and ``str.casefold``
disagree on.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.matching import compile_filter
from repro.gateway.routes import encode_value
from repro.search import columnar
from repro.search.all_fields import AllFieldsEngine
from repro.search.columnar import MatchPlan, fold
from repro.search.indexing import ALL_SEARCH_FIELDS
from repro.search.query import parse_query
from repro.search.synonyms import SynonymExpander

#: Paper words: plain, punctuated, extended past a synonym
#: (coronaviruses, pyrexial), and spelled with İ / ı / ſ / ß / ﬁ.
PAPER_WORDS = [
    "vaccine", "vaccination", "efficacy", "covid", "covid-19",
    "sars-cov-2", "coronaviruses", "fever", "pyrexial", "mask",
    "ppe", "x_ray", "_abc", "3.5", "trial", "İnfluenza", "influenza",
    "Remdesıvir", "remdesivir", "Straße", "strasse", "ﬁbrosis",
    "fibrosis", "Tranſmission", "transmission",
]
_CASES = [str, str.upper, str.title, str.lower]

_word = st.tuples(st.sampled_from(PAPER_WORDS),
                  st.sampled_from(_CASES)).map(lambda pair: pair[1](pair[0]))
_text = st.lists(_word, max_size=8).map(" ".join)

#: Loose terms (the punctuated ones are not kernel-eligible) and quoted
#: phrases of one or two paper words.
_loose = st.sampled_from([
    "vaccine", "covid", "fever", "mask", "covid-19", "sars-cov-2",
    "3.5", "influenza", "remdesivir", "strasse", "fibrosis", "trial",
])
_phrase = st.lists(st.sampled_from(PAPER_WORDS + ["-19", "x_"]),
                   min_size=1, max_size=2).map(
                       lambda words: '"' + " ".join(words) + '"')
_query = st.lists(st.one_of(_loose, _phrase), min_size=1,
                  max_size=3).map(" ".join)


def _papers(texts):
    return [{
        "paper_id": f"p{i:03d}", "title": title, "abstract": abstract,
        "body_text": [{"section": "s", "text": body}],
        "publish_time": "2021-01-01", "journal": "J",
        "authors": [{"first": "A", "last": "B"}],
        "tables": [{"table_id": f"t{i}", "caption": caption,
                    "rows": [{"cells": [{"text": caption}]}]}]
        if caption else [],
        "figures": [],
    } for i, (title, abstract, body, caption) in enumerate(texts)]


def _wire(results) -> bytes:
    results.seconds = 0.0
    return encode_value(results)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_text, _text, _text, _text), min_size=2,
                max_size=24),
       _query, st.booleans(), st.integers(min_value=1, max_value=23))
def test_every_accepted_row_is_a_candidate(texts, query, synonyms, split):
    engine = AllFieldsEngine(
        expander=SynonymExpander() if synonyms else None)
    papers = _papers(texts)
    # Two ingests: the second lands in a delta segment.
    engine.add_papers(papers[:split])
    engine.corpus.columnar_index()
    engine.add_papers(papers[split:])

    parsed = parse_query(query)
    plan = MatchPlan.terms_over_fields(parsed, ALL_SEARCH_FIELDS,
                                       expander=engine.ranking.expander)
    ids = engine.corpus.columnar_index().candidate_ids(
        plan.prefix_clauses())
    accepted = compile_filter(plan.match_document())
    matched = {row["paper_id"] for row in engine.collection.scan()
               if accepted(row)}
    if ids is not None:
        assert matched <= set(ids), (query, matched - set(ids))

    indexed = [_wire(engine.search(query, page=page)) for page in (1, 2)]
    engine.use_columnar = False
    assert [_wire(engine.search(query, page=page))
            for page in (1, 2)] == indexed


def test_prefilter_narrows_a_phrase_and_a_synonym():
    """Not vacuous: a phrase and a synonym expansion skip rows."""
    texts = [("vaccine trial", "", "", ""), ("pyrexial", "", "", ""),
             ("mask", "ppe", "", ""), ("Coronaviruses", "", "", "")]
    engine = AllFieldsEngine(expander=SynonymExpander())
    engine.add_papers(_papers(texts))
    index = engine.corpus.columnar_index()
    for query, want in (('"vaccine trial"', ["p000"]),
                        ("covid", ["p003"]), ("fever", ["p001"])):
        parsed = parse_query(query)
        plan = MatchPlan.terms_over_fields(parsed, ALL_SEARCH_FIELDS,
                                           expander=engine.ranking.expander)
        assert index.candidate_ids(plan.prefix_clauses()) == want, query


def test_fold_is_how_ignorecase_compares_with_ascii():
    """Over the Basic Multilingual Plane: one character in, one out,
    ``\\w`` stays ``\\w``, and a character folds to an ASCII letter or
    digit exactly when ``IGNORECASE`` holds it equal to that one."""
    alnum = re.compile("[a-z0-9]", re.IGNORECASE)
    word = re.compile(r"\w")
    for code in range(0x10000):
        char = chr(code)
        folded = fold(char)
        assert len(folded) == 1, hex(code)
        assert bool(word.match(char)) == bool(word.match(folded)), hex(code)
        if alnum.match(char):
            assert folded.isascii() and folded.isalnum(), hex(code)
            assert re.fullmatch(folded, char, re.IGNORECASE), hex(code)
        else:
            assert not (folded.isascii() and folded.isalnum()), hex(code)


def test_atom_prefix_only_where_a_match_starts_a_run():
    assert columnar.atom_prefix("Vaccine efficacy") == "vaccine"
    assert columnar.atom_prefix("İnfluenza") == "influenza"
    assert columnar.atom_prefix("straße") == "stra"
    assert columnar.atom_prefix("-19") == "19"
    assert columnar.atom_prefix("sars-cov-2") == "sars"
    assert columnar.atom_prefix("_abc") is None  # the run starts at "_"
    assert columnar.atom_prefix("éclair") is None
    assert columnar.atom_prefix("--") is None
