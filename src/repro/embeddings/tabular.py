"""Tabular embeddings: term-level and cell-level tuple representations.

Figure 3's BiGRU ensemble runs two parallel paths over a table tuple:

* **term-wise** — the tuple's cells are concatenated, tokenized, and each
  *term* becomes one embedding step, and
* **cell-wise** — each whole *cell* becomes one step whose vector is the
  mean of its term embeddings (after the Section 3.4 numeric substitution).

:class:`TabularEmbedder` produces both index sequences for the
embedding layers (which may start from pre-trained Word2Vec vectors),
padded/truncated to fixed lengths so batches are rectangular.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.text.normalize import NumericNormalizer
from repro.text.tokenizer import tokenize
from repro.text.vocabulary import UNKNOWN_INDEX, Vocabulary


class TabularEmbedder:
    """Turn table tuples into padded term- and cell-level sequences."""

    def __init__(self, vocabulary: Vocabulary, max_terms: int = 24,
                 max_cells: int = 8) -> None:
        if max_terms < 1 or max_cells < 1:
            raise ModelError("max_terms and max_cells must be positive")
        self.vocabulary = vocabulary
        self.max_terms = max_terms
        self.max_cells = max_cells
        self._normalizer = NumericNormalizer()

    # -- index sequences (inputs to trainable Embedding layers) -------------

    def term_indices(self, cells: list[str]) -> np.ndarray:
        """Tuple -> fixed-length term-index sequence (UNK-padded)."""
        tokens: list[str] = []
        for cell in cells:
            tokens.extend(tokenize(self._normalizer.normalize(cell)))
        indices = [self.vocabulary.index_of(token) for token in tokens]
        return self._pad(indices, self.max_terms)

    def cell_token_indices(self, cells: list[str]) -> np.ndarray:
        """Tuple -> (max_cells, per-cell first-token index) sequence.

        Each cell is represented by its most informative (first
        in-vocabulary) token; cells with no known token map to UNK.
        """
        indices = []
        for cell in cells:
            tokens = tokenize(self._normalizer.normalize(cell))
            index = UNKNOWN_INDEX
            for token in tokens:
                candidate = self.vocabulary.index_of(token)
                if candidate != UNKNOWN_INDEX:
                    index = candidate
                    break
            indices.append(index)
        return self._pad(indices, self.max_cells)

    @staticmethod
    def _pad(indices: list[int], length: int) -> np.ndarray:
        padded = indices[:length] + [UNKNOWN_INDEX] * (length - len(indices))
        return np.array(padded, dtype=np.int64)

    def batch_term_indices(self, tuples: list[list[str]]) -> np.ndarray:
        return np.stack([self.term_indices(cells) for cells in tuples])

    def batch_cell_indices(self, tuples: list[list[str]]) -> np.ndarray:
        return np.stack([self.cell_token_indices(cells) for cells in tuples])
