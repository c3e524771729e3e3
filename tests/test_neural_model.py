"""Tests for losses, optimizers, metrics, and the Sequential model."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.neural.layers import Dense, Embedding, Flatten
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.metrics import accuracy, binary_metrics, f1_score, precision_recall
from repro.neural.model import Sequential, batches
from repro.neural.optimizers import SGD, Adam
from repro.neural.recurrent import GRU

RNG = np.random.default_rng(11)


class TestLosses:
    def test_bce_perfect_prediction_is_near_zero(self):
        loss = BinaryCrossEntropy()
        assert loss.forward(np.array([0.999, 0.001]),
                            np.array([1.0, 0.0])) < 0.01

    def test_bce_wrong_prediction_is_large(self):
        loss = BinaryCrossEntropy()
        assert loss.forward(np.array([0.01]), np.array([1.0])) > 4.0

    def test_bce_gradient_matches_numeric(self):
        loss = BinaryCrossEntropy()
        probs = np.array([0.3, 0.7, 0.5])
        targets = np.array([1.0, 0.0, 1.0])
        analytic = loss.backward(probs, targets)
        eps = 1e-7
        for i in range(3):
            bumped = probs.copy()
            bumped[i] += eps
            numeric = (loss.forward(bumped, targets)
                       - loss.forward(probs, targets)) / eps
            assert abs(analytic[i] - numeric) < 1e-4

    def test_bce_shape_mismatch(self):
        with pytest.raises(ModelError):
            BinaryCrossEntropy().forward(np.zeros(2), np.zeros(3))


class TestOptimizers:
    def quadratic_descent(self, optimizer, steps=200):
        param = np.array([5.0])
        for _ in range(steps):
            grad = 2.0 * param  # d/dx of x^2
            optimizer.step([param], [grad])
        return abs(float(param[0]))

    def test_sgd_converges_on_quadratic(self):
        assert self.quadratic_descent(SGD(learning_rate=0.1)) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self.quadratic_descent(
            SGD(learning_rate=0.05, momentum=0.9)
        ) < 1e-2

    def test_adam_converges_on_quadratic(self):
        assert self.quadratic_descent(Adam(learning_rate=0.1), 400) < 1e-2

    def test_clipping_bounds_update(self):
        param = np.array([0.0])
        SGD(learning_rate=1.0, clip_norm=1.0).step(
            [param], [np.array([100.0])]
        )
        assert abs(param[0]) <= 1.0 + 1e-9

    def test_invalid_learning_rate(self):
        with pytest.raises(ModelError):
            SGD(learning_rate=0.0)
        with pytest.raises(ModelError):
            Adam(learning_rate=-1.0)


class TestMetrics:
    def test_perfect(self):
        truth = np.array([1, 0, 1, 0])
        assert f1_score(truth, truth) == 1.0
        assert accuracy(truth, truth) == 1.0

    def test_precision_recall_asymmetry(self):
        truth = np.array([1, 1, 1, 0])
        predicted = np.array([1, 0, 0, 0])
        precision, recall = precision_recall(truth, predicted)
        assert precision == 1.0
        assert recall == pytest.approx(1 / 3)

    def test_undefined_cases_are_zero(self):
        precision, recall = precision_recall(
            np.array([0, 0]), np.array([0, 0])
        )
        assert precision == 0.0 and recall == 0.0
        assert f1_score(np.array([0, 0]), np.array([0, 0])) == 0.0

    def test_binary_metrics_keys(self):
        metrics = binary_metrics(np.array([1, 0]), np.array([1, 1]))
        assert set(metrics) == {"precision", "recall", "f1", "accuracy"}

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            f1_score(np.array([1]), np.array([1, 0]))


class TestBatches:
    def test_covers_all_indices(self):
        seen = [i for batch in batches(10, 3) for i in batch]
        assert sorted(seen) == list(range(10))

    def test_shuffled_when_rng_given(self):
        rng = np.random.default_rng(0)
        order = [i for batch in batches(100, 10, rng) for i in batch]
        assert order != list(range(100))
        assert sorted(order) == list(range(100))


class TestSequential:
    def test_learns_linearly_separable_data(self):
        x = RNG.normal(size=(200, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        model = Sequential(
            [Dense(2, 8, activation="relu", seed=1),
             Dense(8, 1, activation="sigmoid", seed=2)],
            optimizer=Adam(learning_rate=0.05),
        )
        history = model.fit(x, y, epochs=30, batch_size=32)
        assert history.losses[-1] < history.losses[0]
        assert model.evaluate(x, y)["accuracy"] > 0.95

    def test_learns_sequence_task_with_gru(self):
        # Classify whether a 0/1 sequence contains token "2" anywhere.
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=(300, 6))
        positives = rng.random(300) < 0.5
        for i in np.flatnonzero(positives):
            x[i, rng.integers(6)] = 2
        y = positives.astype(float)
        model = Sequential(
            [Embedding(3, 8, seed=4),
             GRU(8, 8, return_sequences=False, seed=5),
             Dense(8, 1, activation="sigmoid", seed=6)],
            optimizer=Adam(learning_rate=0.02, clip_norm=5.0),
        )
        model.fit(x, y, epochs=15, batch_size=32)
        assert model.evaluate(x, y)["f1"] > 0.9

    def test_predict_proba_in_unit_interval(self):
        model = Sequential([Dense(3, 1, activation="sigmoid")])
        probs = model.predict_proba(RNG.normal(size=(10, 3)))
        assert np.all((probs >= 0) & (probs <= 1))
        assert probs.shape == (10,)

    def test_history_records_time(self):
        model = Sequential([Dense(2, 1, activation="sigmoid")])
        history = model.fit(RNG.normal(size=(10, 2)),
                            RNG.integers(0, 2, 10).astype(float),
                            epochs=2)
        assert len(history.seconds) == 2
        assert history.total_seconds > 0

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ModelError):
            Sequential([])

    def test_num_parameters(self):
        model = Sequential([Dense(3, 2), Flatten()])
        assert model.num_parameters() == 3 * 2 + 2

    def test_mismatched_lengths_rejected(self):
        model = Sequential([Dense(2, 1, activation="sigmoid")])
        with pytest.raises(ModelError):
            model.fit(np.zeros((5, 2)), np.zeros(4))
