"""Tests for fit-time validation and early stopping."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.neural.layers import Dense
from repro.neural.model import Sequential
from repro.neural.optimizers import Adam

RNG = np.random.default_rng(71)


def separable(n):
    x = RNG.normal(size=(n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    return x, y


def model():
    return Sequential(
        [Dense(2, 8, activation="relu", seed=1),
         Dense(8, 1, activation="sigmoid", seed=2)],
        optimizer=Adam(learning_rate=0.05),
    )


class TestValidationAndEarlyStopping:
    def test_validation_losses_recorded(self):
        x, y = separable(100)
        vx, vy = separable(40)
        history = model().fit(x, y, epochs=5,
                              validation_data=(vx, vy))
        assert len(history.validation_losses) == 5
        assert all(np.isfinite(v) for v in history.validation_losses)

    def test_early_stopping_halts_on_plateau(self):
        x, y = separable(100)
        # Validation targets are pure noise: no generalization possible,
        # so validation loss plateaus/rises and patience fires.
        vx = RNG.normal(size=(40, 2))
        vy = RNG.integers(0, 2, 40).astype(float)
        history = model().fit(x, y, epochs=50,
                              validation_data=(vx, vy), patience=2)
        assert history.stopped_early
        assert len(history.losses) < 50

    def test_no_early_stop_while_improving(self):
        x, y = separable(200)
        vx, vy = separable(80)
        history = model().fit(x, y, epochs=5,
                              validation_data=(vx, vy), patience=5)
        assert not history.stopped_early
        assert len(history.losses) == 5

    def test_patience_without_validation_rejected(self):
        x, y = separable(10)
        with pytest.raises(ModelError):
            model().fit(x, y, epochs=2, patience=1)

