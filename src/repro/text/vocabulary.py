"""Frequency-ranked vocabulary / feature space (paper Section 3.2).

The paper builds a 100,000-dimensional feature space by taking every term
in the corpora, sorting by frequency, and cutting off noise words and spam.
:class:`Vocabulary` reproduces that construction with an explicit
``max_terms`` knob so the E7 benchmark can sweep the dimensionality.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.errors import ModelError
from repro.text.stopwords import STOPWORDS
from repro.text.tokenizer import tokenize

#: Index reserved for out-of-vocabulary terms.
UNKNOWN_INDEX = 0
#: Token string reported for out-of-vocabulary terms.
UNKNOWN_TOKEN = "<UNK>"


class Vocabulary:
    """A frequency-ordered term -> index mapping with a noise cutoff.

    Index 0 is reserved for unknown terms; real terms occupy ``1..size-1``
    in decreasing frequency order, which makes truncating to a smaller
    feature space a simple prefix cut.
    """

    def __init__(self, max_terms: int = 100_000, min_count: int = 1,
                 drop_stopwords: bool = True) -> None:
        if max_terms < 1:
            raise ModelError("max_terms must be positive")
        self.max_terms = max_terms
        self.min_count = min_count
        self.drop_stopwords = drop_stopwords
        self._index: dict[str, int] = {}
        self._terms: list[str] = [UNKNOWN_TOKEN]
        self._counts: Counter[str] = Counter()
        self._fitted = False

    # -- construction ---------------------------------------------------

    def add_text(self, text: str) -> None:
        """Accumulate term counts from a raw text fragment."""
        self._counts.update(tokenize(text))
        self._fitted = False

    def add_tokens(self, tokens: Iterable[str]) -> None:
        """Accumulate term counts from pre-tokenized input."""
        self._counts.update(token.lower() for token in tokens)
        self._fitted = False

    def build(self) -> "Vocabulary":
        """Freeze the index: sort by frequency and apply the cutoffs."""
        self._index = {}
        self._terms = [UNKNOWN_TOKEN]
        ranked = sorted(
            self._counts.items(), key=lambda item: (-item[1], item[0])
        )
        for term, count in ranked:
            if len(self._terms) >= self.max_terms:
                break
            if count < self.min_count:
                break
            if self.drop_stopwords and term in STOPWORDS:
                continue
            self._index[term] = len(self._terms)
            self._terms.append(term)
        self._fitted = True
        return self

    @classmethod
    def from_texts(cls, texts: Iterable[str], **kwargs: object) -> "Vocabulary":
        """Build a vocabulary in one shot from an iterable of texts."""
        vocabulary = cls(**kwargs)  # type: ignore[arg-type]
        for text in texts:
            vocabulary.add_text(text)
        return vocabulary.build()

    # -- lookups ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return term.lower() in self._index

    def index_of(self, term: str) -> int:
        """Index of ``term``, or :data:`UNKNOWN_INDEX` when out of vocab."""
        return self._index.get(term.lower(), UNKNOWN_INDEX)

    def term_at(self, index: int) -> str:
        """Inverse lookup; raises ``IndexError`` for invalid indexes."""
        return self._terms[index]

    def count_of(self, term: str) -> int:
        """Raw corpus frequency of ``term`` (0 when never seen)."""
        return self._counts.get(term.lower(), 0)

    def encode(self, text: str) -> list[int]:
        """Tokenize ``text`` and map every token to its index."""
        if not self._fitted:
            raise ModelError("Vocabulary.build() must run before encode()")
        return [self.index_of(token) for token in tokenize(text)]

    def truncated(self, max_terms: int) -> "Vocabulary":
        """A copy restricted to the ``max_terms`` most frequent terms.

        Used by the dimensionality-sweep benchmark (E7): because terms are
        frequency-ordered, truncation keeps exactly the head of the space.
        """
        clone = Vocabulary(
            max_terms=max_terms,
            min_count=self.min_count,
            drop_stopwords=self.drop_stopwords,
        )
        clone._counts = Counter(self._counts)
        return clone.build()

    @property
    def terms(self) -> list[str]:
        """All indexed terms (position == index)."""
        return list(self._terms)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """JSON form carrying counts and settings (rebuildable)."""
        return {
            "max_terms": self.max_terms,
            "min_count": self.min_count,
            "drop_stopwords": self.drop_stopwords,
            "counts": dict(self._counts),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Vocabulary":
        vocabulary = cls(
            max_terms=int(data["max_terms"]),
            min_count=int(data["min_count"]),
            drop_stopwords=bool(data["drop_stopwords"]),
        )
        vocabulary._counts = Counter(data.get("counts", {}))
        return vocabulary.build()
