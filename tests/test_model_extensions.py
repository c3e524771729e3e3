"""Tests for fit-time validation/early stopping and query explain plans."""

import numpy as np
import pytest

from repro.docstore.collection import Collection
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


class TestExplain:
    def collection(self):
        coll = Collection("papers")
        coll.insert_many([
            {"year": 2015 + i % 8, "journal": f"J{i % 3}"}
            for i in range(80)
        ])
        return coll

    def test_full_scan_without_indexes(self):
        plan = self.collection().explain({"year": 2020})
        assert plan["strategy"] == "full_scan"
        assert plan["candidates"] == 80

    def test_hash_index_plan(self):
        coll = self.collection()
        coll.create_index("journal")
        plan = coll.explain({"journal": "J1"})
        assert plan["strategy"] == "hash_index"
        assert plan["index"] == "journal"
        assert plan["candidates"] < 80

    def test_cheapest_index_wins(self):
        coll = self.collection()
        coll.create_index("journal")
        coll.create_index("year")
        # Equality on year narrows to 10; journal to ~27.
        plan = coll.explain({"journal": "J1", "year": {"$eq": 2020}})
        assert plan["index"] == "year"
        assert plan["candidates"] == 10

    def test_explain_matches_actual_scan(self):
        coll = self.collection()
        coll.create_index("year")
        plan = coll.explain({"year": 2021})
        coll.scan_count = 0
        coll.find({"year": 2021}).to_list()
        assert coll.scan_count == plan["candidates"]
