"""Tests for the shared scatter-gather executor."""

import os
import threading
import time

import pytest

from repro.docstore import executor as ex
from repro.docstore.sharding import ShardedCollection


@pytest.fixture(autouse=True)
def fresh_executor():
    """Each test starts and ends with no pool."""
    ex.shutdown_executor()
    yield
    ex.shutdown_executor()


class TestWidth:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(ex.WIDTH_ENV, raising=False)
        assert ex.executor_width() == ex.DEFAULT_WIDTH

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ex.WIDTH_ENV, "3")
        assert ex.executor_width() == 3

    def test_invalid_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(ex.WIDTH_ENV, "not-a-number")
        assert ex.executor_width() == ex.DEFAULT_WIDTH

    def test_non_positive_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(ex.WIDTH_ENV, "0")
        assert ex.executor_width() == ex.DEFAULT_WIDTH

    def test_pool_rebuilds_on_width_change(self, monkeypatch):
        monkeypatch.setenv(ex.WIDTH_ENV, "2")
        first = ex.get_executor()
        monkeypatch.setenv(ex.WIDTH_ENV, "3")
        second = ex.get_executor()
        assert first is not second
        assert second is ex.get_executor()


class TestScatter:
    def test_results_in_task_order(self):
        def task(value):
            def run():
                time.sleep(0.002 * (5 - value))  # later tasks finish first
                return value
            return run

        assert ex.scatter([task(i) for i in range(5)]) == list(range(5))

    def test_actually_parallel(self, monkeypatch):
        monkeypatch.setenv(ex.WIDTH_ENV, "4")
        barrier = threading.Barrier(4, timeout=10)

        def task():
            barrier.wait()  # deadlocks unless all four run concurrently
            return threading.get_ident()

        idents = ex.scatter([task] * 4)
        assert len(set(idents)) == 4

    def test_width_one_is_serial(self, monkeypatch):
        monkeypatch.setenv(ex.WIDTH_ENV, "1")
        main = threading.get_ident()
        idents = ex.scatter([threading.get_ident] * 4)
        assert set(idents) == {main}

    def test_single_task_runs_inline(self):
        main = threading.get_ident()
        assert ex.scatter([threading.get_ident]) == [main]

    def test_first_exception_propagates(self):
        def boom():
            raise ValueError("shard exploded")

        with pytest.raises(ValueError, match="shard exploded"):
            ex.scatter([boom, lambda: 1, lambda: 2])

    def test_nested_fanout_runs_inline(self, monkeypatch):
        # Width 2 with 4 outer tasks that each fan out again: nested
        # submission to the bounded pool would deadlock; inline nested
        # execution cannot.
        monkeypatch.setenv(ex.WIDTH_ENV, "2")

        def inner():
            return threading.get_ident()

        def outer():
            return (threading.get_ident(), ex.scatter([inner] * 3))

        results = ex.scatter([outer] * 4)
        for worker_ident, inner_idents in results:
            assert set(inner_idents) == {worker_ident}


class TestScatterFirst:
    def test_returns_accepted_result(self):
        result = ex.scatter_first(
            [lambda: None, lambda: 7, lambda: None],
            accept=lambda value: value is not None,
        )
        assert result == 7

    def test_none_when_nothing_accepted(self):
        result = ex.scatter_first(
            [lambda: None] * 4, accept=lambda value: value is not None
        )
        assert result is None

    def test_serial_short_circuits_in_order(self, monkeypatch):
        monkeypatch.setenv(ex.WIDTH_ENV, "1")
        calls = []

        def task(value):
            def run():
                calls.append(value)
                return value
            return run

        result = ex.scatter_first(
            [task(0), task(1), task(2), task(3)],
            accept=lambda value: value >= 1,
        )
        assert result == 1
        assert calls == [0, 1]  # later tasks never ran

    def test_fast_hit_wins_over_slow_tasks(self, monkeypatch):
        monkeypatch.setenv(ex.WIDTH_ENV, "4")

        def slow():
            time.sleep(0.2)
            return None

        def fast():
            return "hit"

        started = time.perf_counter()
        result = ex.scatter_first(
            [slow, fast, slow, slow],
            accept=lambda value: value is not None,
        )
        assert result == "hit"
        assert time.perf_counter() - started < 1.0

    def test_error_propagates_only_without_winner(self):
        def boom():
            raise ValueError("shard down")

        assert ex.scatter_first(
            [boom, lambda: "ok"], accept=lambda value: value is not None
        ) == "ok"
        with pytest.raises(ValueError, match="shard down"):
            ex.scatter_first(
                [boom, lambda: None], accept=lambda v: v is not None
            )


class TestPoolRetirement:
    def test_fanouts_survive_width_flips_and_shutdowns(self, monkeypatch):
        """Pool rebuilds and ``shutdown_executor`` race in-flight fan-outs.

        A fan-out that fetched the pool just before another thread
        retired it must resubmit on the current one (``_submit_task``)
        and still return the serial answer.  Under ``REPRO_RACECHECK=1``
        the session gate turns this into a lock-order race test too.
        """
        store = ShardedCollection("stress", shard_key="paper_id",
                                  num_shards=4)
        store.insert_many([
            {"paper_id": f"p{index:03d}", "rank": index % 7,
             "year": 2019 + index % 4}
            for index in range(48)
        ])
        pipeline = [
            {"$match": {"year": {"$gte": 2020}}},
            {"$sort": {"rank": -1, "paper_id": 1}},
            {"$limit": 5},
        ]
        monkeypatch.setenv(ex.WIDTH_ENV, "1")
        expected = [doc["paper_id"]
                    for doc in store.aggregate(pipeline).documents]
        assert len(expected) == 5
        monkeypatch.setenv(ex.WIDTH_ENV, "4")
        errors: list[BaseException] = []
        stop = threading.Event()

        def flipper():
            widths = ["2", "4", "3", "5"]
            index = 0
            while not stop.is_set():
                os.environ[ex.WIDTH_ENV] = widths[index % len(widths)]
                if index % 7 == 3:
                    ex.shutdown_executor()
                else:
                    ex.get_executor()  # force a rebuild
                index += 1
                time.sleep(0.002)

        def reader():
            try:
                for _ in range(25):
                    page = store.aggregate(pipeline).documents
                    assert [doc["paper_id"] for doc in page] == expected
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        flip = threading.Thread(target=flipper)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        flip.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
            assert not thread.is_alive()
        stop.set()
        flip.join(timeout=10)
        assert not flip.is_alive()
        assert not errors, f"stress raised: {errors!r}"
