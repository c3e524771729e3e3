"""Web-table spam/noise classification (paper Section 3.2, ref [78]).

The vocabulary feature space is built by "cutting off the noise words and
spam"; at web scale much of that noise arrives as spam *tables* — layout
grids, navigation bars, SEO keyword farms, ad blocks — that must be
filtered before tables feed classifier training or the vocabulary.

:class:`SpamTableClassifier` scores a table on structural features:

* **emptiness** — fraction of empty cells (layout grids),
* **repetition** — fraction of duplicate rows and duplicate cells
  (keyword farms repeat),
* **promo density** — fraction of cells containing URLs or promotional
  vocabulary ("click", "buy now", "free", ...),
* **degeneracy** — single-row/column shapes (navigation strips),
* **cell length extremes** — spam cells are either near-empty fragments
  or run-on keyword blobs.

The default is a calibrated heuristic score (no training data needed —
the realistic cold-start); ``fit`` upgrades it to a linear SVM over the
same features when labeled examples exist.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from repro.errors import NotFittedError
from repro.ml.svm import LinearSVM
from repro.tables.model import Table

_URL_RE = re.compile(r"https?://|www\.", re.IGNORECASE)
_PROMO_RE = re.compile(
    r"\b(?:click|buy now|free|sale|discount|subscribe|sign up|offer|"
    r"cheap|deal|winner|prize|casino|viagra)\b",
    re.IGNORECASE,
)

FEATURE_NAMES = (
    "empty_fraction", "duplicate_row_fraction", "duplicate_cell_fraction",
    "promo_fraction", "url_fraction", "degenerate_shape",
    "short_cell_fraction", "long_cell_fraction",
)


def spam_features(table: Table) -> np.ndarray:
    """The 8 structural spam features of ``table``, each in [0, 1]."""
    cells = [cell.text for row in table.rows for cell in row.cells]
    num_cells = len(cells)
    if num_cells == 0:
        return np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])

    empty = sum(1 for text in cells if not text.strip()) / num_cells

    row_keys = [tuple(row.texts) for row in table.rows]
    row_counts = Counter(row_keys)
    duplicate_rows = sum(
        count - 1 for count in row_counts.values() if count > 1
    ) / max(1, len(row_keys))

    non_empty = [text for text in cells if text.strip()]
    cell_counts = Counter(text.lower() for text in non_empty)
    duplicate_cells = sum(
        count - 1 for count in cell_counts.values() if count > 1
    ) / max(1, len(non_empty))

    promo = sum(
        1 for text in non_empty if _PROMO_RE.search(text)
    ) / max(1, len(non_empty))
    urls = sum(
        1 for text in non_empty if _URL_RE.search(text)
    ) / max(1, len(non_empty))

    degenerate = 1.0 if (
        table.num_rows <= 1 or table.num_columns <= 1
    ) else 0.0

    # Short *non-numeric* fragments ("»", "|") are layout debris; short
    # numbers are ordinary data cells and must not count.
    short = sum(
        1 for text in non_empty
        if len(text.strip()) <= 2
        and not text.strip().replace(".", "").replace("%", "").isdigit()
    ) / max(1, len(non_empty))
    long_ = sum(1 for text in non_empty if len(text) > 120) / max(
        1, len(non_empty)
    )
    return np.array([empty, duplicate_rows, duplicate_cells, promo,
                     urls, degenerate, short, long_])


#: Heuristic weights per feature (dot with the feature vector -> score).
_HEURISTIC_WEIGHTS = np.array([1.0, 1.2, 0.8, 2.0, 2.0, 0.8, 0.6, 1.0])
#: Scores above this are spam under the heuristic.
HEURISTIC_THRESHOLD = 0.8


class SpamTableClassifier:
    """Heuristic-by-default, SVM-when-trained spam table filter."""

    def __init__(self, threshold: float = HEURISTIC_THRESHOLD,
                 seed: int = 0) -> None:
        self.threshold = threshold
        self.seed = seed
        self._svm: LinearSVM | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def heuristic_score(self, table: Table) -> float:
        """Weighted spam-feature mass; larger is spammier."""
        return float(spam_features(table) @ _HEURISTIC_WEIGHTS)

    def fit(self, tables: list[Table],
            labels: list[bool]) -> "SpamTableClassifier":
        """Train the SVM upgrade on labeled (table, is_spam) examples."""
        matrix = np.stack([spam_features(table) for table in tables])
        self._mean = matrix.mean(axis=0)
        self._std = matrix.std(axis=0)
        self._std[self._std == 0.0] = 1.0
        standardized = (matrix - self._mean) / self._std
        self._svm = LinearSVM(epochs=20, seed=self.seed)
        self._svm.fit(standardized, np.array(labels, dtype=int))
        return self

    def is_spam(self, table: Table) -> bool:
        if self._svm is None:
            return self.heuristic_score(table) >= self.threshold
        if self._mean is None or self._std is None:
            raise NotFittedError("inconsistent classifier state")
        features = (spam_features(table) - self._mean) / self._std
        return bool(self._svm.predict(features[None, :])[0])
