"""Numerically-stable activation functions and their derivatives."""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def sigmoid_grad(output: np.ndarray) -> np.ndarray:
    """d sigmoid / dx expressed in terms of the *output*."""
    return output * (1.0 - output)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_grad(output: np.ndarray) -> np.ndarray:
    """d tanh / dx expressed in terms of the *output*."""
    return 1.0 - output ** 2


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)
