"""Query parsing: stemmed loose terms and quoted exact phrases.

"Each one allows for exact match of the query if wrapped in quotes or
stemming match capability on a tokenized query" — the parser produces, per
token, the regular expression the ``$match`` stage uses: exact phrases
escape verbatim; loose terms match any word sharing the Porter stem's
prefix (``masks`` -> stem ``mask`` -> ``\\bmask\\w*``).

Where every term is loose and plain ASCII (:attr:`QueryTerm.prefixes`),
the result page needs no regex at all: :class:`PrefixMatcher` finds the
same matches as folded ``\\w+`` run prefixes.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from repro.errors import QueryError
from repro.text.stemmer import stem
from repro.text.tokenizer import QueryToken, tokenize_query

#: Prefix-matchable roots/words: pure lowercase ASCII alphanumerics, for
#: which "the regex matches at a ``\\w+`` run's start" and "the
#: :func:`fold`-ed run starts with the word" coincide.
_ALNUM_RE = re.compile(r"[a-z0-9]+\Z")

#: ``IGNORECASE`` holds two characters equal when their simple lowercase
#: forms are equal or share one of sre's equivalence classes.
#: ``str.lower`` is the simple mapping except for U+0130 (İ lowers to
#: two characters, "i" + U+0307), so that one folds first; the two classes
#: holding an ASCII letter (i ı, s ſ) fold onto it after.  ``casefold``
#: would also expand ß and ﬁ into two letters, which the regex never does.
_FOLD_FIRST = {0x130: "i"}
_FOLD_CLASSES = {0x131: "i", 0x17F: "s"}

#: The regex's own ``\\w`` and ``\\w+``, read on the raw text.
_WORD_RE = re.compile(r"\w")
_RUN_RE = re.compile(r"\w+")


def fold(text: str) -> str:
    """``text`` folded character by character the way ``IGNORECASE``
    compares it with an ASCII letter or digit.

    One character in, one out, and ``\\w`` stays ``\\w``, so a folded
    ``\\w+`` run starts with a lowercase ASCII-alphanumeric word exactly
    when the regex, ignoring case, matches that word at the run's start.

    >>> fold("İnfluenza Remdesıvir Straße")
    'influenza remdesivir straße'
    """
    if text.isascii():
        return text.lower()
    return text.translate(_FOLD_FIRST).lower().translate(_FOLD_CLASSES)


@dataclass(frozen=True)
class QueryTerm:
    """One searchable unit with its match regex."""

    text: str
    exact: bool
    pattern: str  # regex source, compiled with IGNORECASE by consumers

    def regex(self) -> re.Pattern[str]:
        """The compiled match regex, built once per term."""
        return self._compiled

    @cached_property
    def _compiled(self) -> re.Pattern[str]:
        return re.compile(self.pattern, re.IGNORECASE)

    @cached_property
    def prefixes(self) -> tuple[str, ...] | None:
        """The distinct ``(root, word)`` of a loose term whose Porter root
        and word are both lowercase ASCII alphanumerics, else ``None``.

        For such a term ``\\b(?:root|word)\\w*``, ignoring case, matches
        exactly the ``\\w+`` runs whose :func:`fold`-ed text starts with
        a prefix, and the match spans the whole run — the one rule both
        :class:`PrefixMatcher` and the columnar kernels stand on.
        """
        if self.exact:
            return None
        words = tuple(dict.fromkeys((stem(self.text), self.text)))
        return words if all(_ALNUM_RE.match(w) for w in words) else None


class PrefixMatcher:
    """The any-term alternation of prefix-matchable terms, without a regex.

    It finds each prefix in ``fold(text)`` with ``str.find``, keeps the
    hits that start a ``\\w+`` run of ``text``, and takes the run as the
    match: the alternation's spans, compiled for no query.
    """

    __slots__ = ("terms", "prefixes")

    def __init__(self, terms: tuple[tuple[str, ...], ...]) -> None:
        self.terms = terms  # per term (repeats kept), its prefixes
        self.prefixes = tuple(dict.fromkeys(
            prefix for prefixes in terms for prefix in prefixes
        ))

    @staticmethod
    def _run_starts(text: str, folded: str,
                    prefixes: tuple[str, ...]) -> set[int]:
        starts = set()
        for prefix in prefixes:
            at = folded.find(prefix)
            while at != -1:
                if not at or not _WORD_RE.match(text, at - 1):
                    starts.add(at)
                at = folded.find(prefix, at + 1)
        return starts

    def starts(self, text: str) -> list[int]:
        """Where every match starts, in order (one fold of ``text``);
        each match is the ``\\w+`` run there (:func:`run_span`)."""
        return sorted(self._run_starts(text, fold(text), self.prefixes))

    def spans(self, text: str) -> list[tuple[int, int]]:
        """Every match's span, in order: what the alternation's ``sub``
        visits."""
        return [run_span(text, at) for at in self.starts(text)]

    def term_counts(self, texts: list[str]) -> list[int]:
        """How many terms (repeats counted) match each of ``texts``.

        One fold of the texts joined by ``"\\n"``: not ``\\w``, so no run
        crosses from one text into the next.
        """
        joined = "\n".join(texts)
        folded = fold(joined)
        bounds = list(accumulate(len(text) + 1 for text in texts[:-1]))
        counts = [0] * len(texts)
        for prefixes in self.terms:
            for cell in {bisect_right(bounds, at) for at in
                         self._run_starts(joined, folded, prefixes)}:
                counts[cell] += 1
        return counts


@dataclass(frozen=True)
class ParsedQuery:
    """A parsed user query: ordered terms plus their any-term matcher."""

    raw: str
    terms: tuple[QueryTerm, ...]

    @cached_property
    def matcher(self) -> re.Pattern[str] | PrefixMatcher:
        """One any-term alternation, built once per query.

        A :class:`PrefixMatcher` when every term has
        :attr:`~QueryTerm.prefixes`; otherwise the compiled regex.  Its
        ``search`` (the run at ``starts()[0]``) returns the leftmost match
        of any term and, where two terms match from the same start, the
        earlier term's — the span a term-by-term scan picks; ``sub``
        (``spans``) visits what ``highlight`` marks.
        """
        prefixes = tuple(term.prefixes for term in self.terms)
        if None not in prefixes:
            return PrefixMatcher(prefixes)
        return re.compile(
            "|".join(f"(?:{term.pattern})" for term in self.terms),
            re.IGNORECASE,
        )

    def __len__(self) -> int:
        return len(self.terms)


def run_span(text: str, at: int) -> tuple[int, int]:
    """The span of the ``\\w+`` run of ``text`` starting at ``at``."""
    return _RUN_RE.match(text, at).span()


def _pattern_for(token: QueryToken) -> str:
    if token.exact:
        return r"\b" + re.escape(token.text) + r"\b"
    root = stem(token.text)
    # The stem is a prefix of most inflections ("mask" ~ masks/masked/...).
    # Porter stems sometimes end in 'i' for y-inflections (happi); allow
    # the original token too.
    escaped_root = re.escape(root)
    escaped_word = re.escape(token.text)
    return rf"\b(?:{escaped_root}|{escaped_word})\w*"


def parse_query(query: str) -> ParsedQuery:
    """Parse ``query``; raises :class:`QueryError` when empty."""
    tokens = tokenize_query(query)
    if not tokens:
        raise QueryError("empty query")
    terms = tuple(
        QueryTerm(text=token.text, exact=token.exact,
                  pattern=_pattern_for(token))
        for token in tokens
    )
    return ParsedQuery(raw=query, terms=terms)
