"""SVM metadata classifier over positional + hashed lexical features.

The feature vector per tuple is the concatenation of

* the numeric positional features ``f2..f6`` (Section 3.5), and
* a hashed bag-of-words of the normalized ``f1`` text (the Section 3.4
  substitution keywords — ZERO/RANGE/INT/... — are highly discriminative
  between data rows and header rows, so the lexical part matters).

Features are standardized before training; ``feature_mask`` lets the E8
ablation switch individual positional features off.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.classify.dataset import MetadataDataset
from repro.errors import ModelError, NotFittedError
from repro.ml.svm import KernelSVM, LinearSVM
from repro.text.tokenizer import tokenize

#: Number of positional features (f2..f6).
NUM_POSITIONAL = 5


def hashed_bag_of_words(text: str, dim: int) -> np.ndarray:
    """Hashing-trick bag-of-words with sign hashing.

    Uses CRC32 rather than the builtin ``hash`` so vectors are stable
    across processes (``hash`` of strings is salted per interpreter run).
    """
    vector = np.zeros(dim)
    for token in tokenize(text):
        digest = zlib.crc32(token.encode("utf-8"))
        bucket = digest % dim
        sign = 1.0 if (digest >> 16) % 2 == 0 else -1.0
        vector[bucket] += sign
    return vector


class SvmMetadataClassifier:
    """Binary metadata/data classifier backed by an SVM.

    Args:
        text_hash_dim: width of the hashed lexical block (0 disables it).
        feature_mask: length-5 booleans enabling f2..f6 (E8 ablation).
        kernel: None for the linear SVM, or "rbf"/"sigmoid".
    """

    def __init__(self, text_hash_dim: int = 64,
                 feature_mask: tuple[bool, ...] | None = None,
                 kernel: str | None = None, epochs: int = 15,
                 seed: int = 0) -> None:
        if feature_mask is not None and len(feature_mask) != NUM_POSITIONAL:
            raise ModelError(
                f"feature_mask must have {NUM_POSITIONAL} entries"
            )
        self.text_hash_dim = text_hash_dim
        self.feature_mask = (
            tuple(feature_mask) if feature_mask is not None
            else (True,) * NUM_POSITIONAL
        )
        if kernel is None:
            self._svm: LinearSVM | KernelSVM = LinearSVM(
                epochs=epochs, seed=seed
            )
        else:
            self._svm = KernelSVM(kernel=kernel, epochs=epochs, seed=seed)
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    # -- feature building ---------------------------------------------------

    def _vector(self, positional: list[float], text: str) -> np.ndarray:
        masked = [
            value for value, keep in zip(positional, self.feature_mask)
            if keep
        ]
        parts = [np.array(masked, dtype=np.float64)]
        if self.text_hash_dim:
            parts.append(hashed_bag_of_words(text, self.text_hash_dim))
        return np.concatenate(parts)

    def feature_matrix(self, dataset: MetadataDataset) -> np.ndarray:
        """The raw (unstandardized) feature matrix of a dataset."""
        return np.stack([
            self._vector(t.features.positional, t.text) for t in dataset
        ])

    def _standardize(self, matrix: np.ndarray,
                     fit: bool = False) -> np.ndarray:
        if fit:
            self._mean = matrix.mean(axis=0)
            self._std = matrix.std(axis=0)
            self._std[self._std == 0.0] = 1.0
        if self._mean is None or self._std is None:
            raise NotFittedError("SvmMetadataClassifier.fit has not run")
        return (matrix - self._mean) / self._std

    # -- train / predict -----------------------------------------------------

    @staticmethod
    def _balance(matrix: np.ndarray, labels: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Oversample the minority class to a 1:1 ratio.

        Metadata rows are heavily outnumbered by data rows (one header per
        table); without balancing, hinge loss happily sacrifices recall on
        the minority class.
        """
        labels = np.asarray(labels)
        positives = np.flatnonzero(labels == 1)
        negatives = np.flatnonzero(labels != 1)
        if len(positives) == 0 or len(negatives) == 0:
            return matrix, labels
        minority, majority = (
            (positives, negatives) if len(positives) < len(negatives)
            else (negatives, positives)
        )
        repeats = len(majority) // len(minority)
        remainder = len(majority) % len(minority)
        oversampled = np.concatenate(
            [np.tile(minority, repeats), minority[:remainder], majority]
        )
        return matrix[oversampled], labels[oversampled]

    def fit(self, dataset: MetadataDataset) -> "SvmMetadataClassifier":
        dataset.require_both_classes()
        matrix = self._standardize(self.feature_matrix(dataset), fit=True)
        matrix, labels = self._balance(matrix, dataset.labels)
        self._svm.fit(matrix, labels)
        return self

    def predict(self, dataset: MetadataDataset) -> np.ndarray:
        matrix = self._standardize(self.feature_matrix(dataset))
        return self._svm.predict(matrix)

    def decision_function(self, dataset: MetadataDataset) -> np.ndarray:
        matrix = self._standardize(self.feature_matrix(dataset))
        return self._svm.decision_function(matrix)

    # -- serialization ------------------------------------------------------

    def save(self, path) -> None:
        """Persist the trained linear model to an ``.npz`` file."""
        import json as _json
        from pathlib import Path

        if not isinstance(self._svm, LinearSVM):
            raise ModelError("only linear classifiers are serializable")
        if self._svm.weights is None or self._mean is None:
            raise NotFittedError("cannot save an untrained classifier")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        config = {
            "text_hash_dim": self.text_hash_dim,
            "feature_mask": list(self.feature_mask),
        }
        np.savez_compressed(
            path,
            weights=self._svm.weights,
            bias=np.array([self._svm.bias]),
            mean=self._mean,
            std=self._std,
            config=np.frombuffer(
                _json.dumps(config).encode("utf-8"), dtype=np.uint8
            ),
        )

    @classmethod
    def load(cls, path) -> "SvmMetadataClassifier":
        """Restore a classifier saved with :meth:`save`."""
        import json as _json

        with np.load(path) as archive:
            config = _json.loads(bytes(archive["config"]).decode("utf-8"))
            classifier = cls(
                text_hash_dim=int(config["text_hash_dim"]),
                feature_mask=tuple(config["feature_mask"]),
            )
            svm = classifier._svm
            assert isinstance(svm, LinearSVM)
            svm.weights = archive["weights"].copy()
            svm.bias = float(archive["bias"][0])
            classifier._mean = archive["mean"].copy()
            classifier._std = archive["std"].copy()
        return classifier
