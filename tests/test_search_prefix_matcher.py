"""The prefix matcher is the compiled any-term alternation, minus the regex.

For a query whose terms are all loose and plain ASCII
(``QueryTerm.prefixes``), ``ParsedQuery.matcher`` finds folded ``\\w+``
run prefixes with ``str.find`` instead of compiling
``(?:\\b(?:root|word)\\w*)|...`` with ``IGNORECASE``.  The differential
property below holds it to the regex on the four answers a result page
asks for — the excerpt around the first match with its matches marked
(snippets), every match wrapped (highlights), which table cells hold a
match, and how many terms each cell holds — over texts full of the
characters where ``IGNORECASE`` and ``str.lower`` part ways.  The Unicode tables differ between Python
versions, so every supported version runs it.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.search.query import PrefixMatcher, parse_query
from repro.search.snippets import (
    HIGHLIGHT_CLOSE,
    HIGHLIGHT_OPEN,
    highlight,
    snippet,
)

#: İ ı ſ K(elvin) ß ﬁ, a combining acute, fullwidth Ｓ １, micro µ and
#: final ς beside ASCII word characters, ``_``, spaces, newlines and
#: punctuation.
ALPHABET = ("abeiksz019AEIKSZ_ \n.,-'\"()/"
            "\u0130\u0131\u017f\u212a\u00df\ufb01\u0301\uff33\uff11"
            "\u00b5\u03c2")

#: Spellings of a term that ``IGNORECASE`` still matches: as typed, in
#: upper case, and with the non-ASCII characters it holds equal to i, s
#: and k.
SPELLINGS = ({}, str.maketrans("abeiksz", "ABEIKSZ"),
             str.maketrans("isk", "\u0130\u017f\u212a"),
             str.maketrans("i", "\u0131"))

terms = st.text(alphabet="abeiksz019", min_size=1, max_size=6)
noise = st.text(alphabet=ALPHABET, max_size=8)


@st.composite
def query_and_texts(draw):
    words = draw(st.lists(terms, min_size=1, max_size=3))
    parsed = parse_query(" ".join(words))
    spelled = st.builds(
        lambda word, table, suffix: word.translate(table) + suffix,
        st.sampled_from(words), st.sampled_from(SPELLINGS),
        st.text(alphabet=ALPHABET, max_size=3),
    )
    chunk = st.one_of(noise, spelled)
    text = st.lists(chunk, max_size=6).map("".join)
    return parsed, draw(text), draw(st.lists(text, max_size=5))


def _reference(parsed) -> re.Pattern[str]:
    return re.compile(
        "|".join(f"(?:{term.pattern})" for term in parsed.terms),
        re.IGNORECASE,
    )


def _marked(regex, text):
    return regex.sub(
        lambda m: HIGHLIGHT_OPEN + m.group() + HIGHLIGHT_CLOSE, text)


def _reference_snippet(regex, text, radius):
    """The excerpt around the regex's first match, marked by ``sub``."""
    match = regex.search(text)
    if match is None:
        return ""
    start = max(0, match.start() - radius)
    end = min(len(text), match.end() + radius)
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    while end < len(text) and not text[end].isspace():
        end += 1
    return ("..." if start > 0 else "") \
        + _marked(regex, text[start:end].strip()) \
        + ("..." if end < len(text) else "")


@settings(max_examples=150, deadline=None)
@given(query_and_texts(), st.sampled_from([0, 2, 5]))
# The cut lands on whitespace the excerpt strips: at the text's start,
# inside a double space, and before the cut end.
@example((parse_query("vacc"), " vacc", []), 2)
@example((parse_query("vacc"), "x  vacc", []), 1)
@example((parse_query("vacc"), "vacc \n x", []), 1)
def test_prefix_matcher_is_the_compiled_alternation(case, radius):
    parsed, text, cells = case
    assert isinstance(parsed.matcher, PrefixMatcher)
    regex = _reference(parsed)

    assert snippet(text, parsed, radius) == \
        _reference_snippet(regex, text, radius)
    assert highlight(text, parsed) == _marked(regex, text)

    counts = parsed.matcher.term_counts(cells)
    assert [count > 0 for count in counts] \
        == [regex.search(cell) is not None for cell in cells]
    assert counts == [
        sum(term.regex().search(cell) is not None for term in parsed.terms)
        for cell in cells
    ]


def test_only_loose_ascii_terms_skip_the_regex():
    for query in ("vaccine efficacy", "covid 19 happy", "vaccine vaccine"):
        assert isinstance(parse_query(query).matcher, PrefixMatcher), query
    for query in ('"vaccine efficacy"', "covid-19", "sars-cov-2 vaccine",
                  "it's"):
        assert isinstance(parse_query(query).matcher, re.Pattern), query
    # Repeated terms are counted twice, as a term-by-term scan counts them.
    assert parse_query("vaccine vaccines").matcher.term_counts(
        ["Vaccines", "", "vaccination\nvaccine"]) == [2, 0, 2]
