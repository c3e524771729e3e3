"""TF-IDF term weighting (Sparck Jones, 1972 — the paper's ref [53]).

Every search engine in Section 2.1 weights matched terms by TF-IDF inside
its ranking ``$function`` stages.  :class:`TfIdfModel` counts document
frequencies over a corpus; :func:`tf_weight` is the one TF scaling both
the scalar scorer and the columnar kernels use.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from repro.errors import NotFittedError


def tf_weight(tf: int) -> float:
    """Logarithmic term-frequency scaling ``1 + log(tf)``, for ``tf > 0``."""
    return 1.0 + math.log(tf)


class TfIdfModel:
    """Corpus-level IDF statistics.

    IDF uses the smoothed form ``log((1 + N) / (1 + df)) + 1`` so that
    unseen terms still receive a finite, maximal IDF instead of a
    division by zero.
    """

    def __init__(self) -> None:
        self._doc_freq: Counter[str] = Counter()
        self._num_docs = 0

    def add_document_tokens(self, tokens: Iterable[str]) -> None:
        """Incrementally add one pre-tokenized document."""
        self._num_docs += 1
        self._doc_freq.update({token.lower() for token in tokens})

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
