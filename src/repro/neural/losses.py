"""Loss functions (value + gradient)."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError

_EPSILON = 1e-12


class BinaryCrossEntropy:
    """Binary cross-entropy over sigmoid probabilities.

    ``forward`` takes probabilities in (0, 1) and binary targets; the
    returned gradient is with respect to the probabilities.
    """

    def forward(self, probabilities: np.ndarray,
                targets: np.ndarray) -> float:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if probabilities.shape != targets.shape:
            raise ModelError(
                f"shape mismatch {probabilities.shape} vs {targets.shape}"
            )
        clipped = np.clip(probabilities, _EPSILON, 1.0 - _EPSILON)
        losses = -(
            targets * np.log(clipped)
            + (1.0 - targets) * np.log(1.0 - clipped)
        )
        return float(losses.mean())

    def backward(self, probabilities: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        clipped = np.clip(probabilities, _EPSILON, 1.0 - _EPSILON)
        grad = (clipped - targets) / (clipped * (1.0 - clipped))
        return grad / targets.size
