"""Query parsing: stemmed loose terms and quoted exact phrases.

"Each one allows for exact match of the query if wrapped in quotes or
stemming match capability on a tokenized query" — the parser produces, per
token, the regular expression the ``$match`` stage uses: exact phrases
escape verbatim; loose terms match any word sharing the Porter stem's
prefix (``masks`` -> stem ``mask`` -> ``\\bmask\\w*``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from repro.errors import QueryError
from repro.text.stemmer import stem
from repro.text.tokenizer import QueryToken, tokenize_query


@dataclass(frozen=True)
class QueryTerm:
    """One searchable unit with its match regex."""

    text: str
    exact: bool
    pattern: str  # regex source, compiled with IGNORECASE by consumers

    @property
    def stemmed(self) -> str:
        return self.text if self.exact else stem(self.text)

    def regex(self) -> re.Pattern[str]:
        """The compiled match regex, built once per term."""
        return self._compiled

    @cached_property
    def _compiled(self) -> re.Pattern[str]:
        return re.compile(self.pattern, re.IGNORECASE)


@dataclass(frozen=True)
class ParsedQuery:
    """A parsed user query: ordered terms plus convenience views."""

    raw: str
    terms: tuple[QueryTerm, ...]

    @property
    def words(self) -> list[str]:
        """Every individual word across terms (phrases contribute each)."""
        result = []
        for term in self.terms:
            result.extend(term.text.split())
        return result

    @cached_property
    def matcher(self) -> re.Pattern[str]:
        """One any-term alternation, compiled once per query.

        ``search`` returns the leftmost match of any term and, where two
        terms match from the same start, the earlier term's — the span a
        term-by-term scan picks; ``sub`` visits what ``highlight`` marks.
        """
        return re.compile(
            "|".join(f"(?:{term.pattern})" for term in self.terms),
            re.IGNORECASE,
        )

    def __len__(self) -> int:
        return len(self.terms)


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
