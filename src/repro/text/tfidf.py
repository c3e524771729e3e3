"""TF-IDF term weighting (Sparck Jones, 1972 — the paper's ref [53]).

Every search engine in Section 2.1 weights matched terms by TF-IDF inside
its ranking ``$function`` stages.  :class:`TfIdfModel` computes document
frequencies once over a corpus and then scores term/document pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from repro.errors import NotFittedError
from repro.text.tokenizer import tokenize


class TfIdfModel:
    """Corpus-level IDF statistics plus per-document TF scoring.

    TF uses logarithmic scaling ``1 + log(tf)`` and IDF the smoothed form
    ``log((1 + N) / (1 + df)) + 1`` so that unseen terms still receive a
    finite, maximal IDF instead of a division by zero.
    """

    def __init__(self) -> None:
        self._doc_freq: Counter[str] = Counter()
        self._num_docs = 0

    # -- fitting -----------------------------------------------------------

    def fit(self, documents: Iterable[str]) -> "TfIdfModel":
        """Count document frequencies over an iterable of raw texts."""
        for document in documents:
            self.add_document(document)
        return self

    def add_document(self, document: str) -> None:
        """Incrementally add one document's terms to the DF table."""
        self._num_docs += 1
        self._doc_freq.update(set(tokenize(document)))

    def add_document_tokens(self, tokens: Iterable[str]) -> None:
        """Incrementally add one pre-tokenized document."""
        self._num_docs += 1
        self._doc_freq.update({token.lower() for token in tokens})

    # -- scoring -------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return self._num_docs

    def document_frequency(self, term: str) -> int:
        return self._doc_freq.get(term.lower(), 0)

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency of ``term``."""
        if self._num_docs == 0:
            raise NotFittedError("TfIdfModel has seen no documents")
        df = self._doc_freq.get(term.lower(), 0)
        return math.log((1 + self._num_docs) / (1 + df)) + 1.0

    def tfidf(self, term: str, document_tokens: list[str]) -> float:
        """TF-IDF of ``term`` within a tokenized document."""
        term = term.lower()
        tf = sum(1 for token in document_tokens if token == term)
        if tf == 0:
            return 0.0
        return (1.0 + math.log(tf)) * self.idf(term)

    def vector(self, document: str, vocabulary: list[str]) -> list[float]:
        """Dense TF-IDF vector of ``document`` over ``vocabulary`` order."""
        tokens = tokenize(document)
        return [self.tfidf(term, tokens) for term in vocabulary]
