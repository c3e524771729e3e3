"""Regression tests for the concurrency bugs the linter flagged.

Each test here pins a specific fix: the admission pool's
submit/shutdown race, and the metrics/cache snapshot methods that used
to read shared counters with no lock at all.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.serve.admission import WorkerPool
from repro.serve.cache import ResultCache
from repro.serve.metrics import LatencyHistogram, ServiceMetrics


def test_worker_pool_submit_shutdown_race_settles_every_future():
    """No future returned by ``submit`` may languish unsettled.

    Pre-fix code enqueued outside the closed-check lock, so a task
    could land in the queue *after* the shutdown sentinels (and after
    the shutdown drain) — its future never resolved.  Force that
    interleaving: the enqueue waits until ``shutdown(wait=True)`` has
    returned.  With the fix the enqueue holds the lock shutdown needs,
    so the wait times out, the task is queued first and runs.
    """
    pool = WorkerPool(num_workers=2, max_queue=4)
    enqueuing, shut_down = threading.Event(), threading.Event()
    put_nowait = pool._queue.put_nowait

    def late_put_nowait(item):
        enqueuing.set()
        shut_down.wait(timeout=0.5)
        put_nowait(item)

    pool._queue.put_nowait = late_put_nowait
    futures: list = []
    submitter = threading.Thread(
        target=lambda: futures.append(pool.submit(lambda: 1)))
    submitter.start()
    assert enqueuing.wait(timeout=5.0)
    pool.shutdown(wait=True)
    shut_down.set()
    submitter.join(timeout=5.0)
    assert not submitter.is_alive()
    (future,) = futures
    assert future.result(timeout=2.0) == 1


def _snapshot_on_a_thread(read):
    """Start ``read`` on a thread; returns (thread, results list)."""
    results: list = []
    reader = threading.Thread(target=lambda: results.append(read()))
    reader.start()
    return reader, results


def test_histogram_snapshot_is_internally_consistent_under_writes():
    """``snapshot`` must not read a half-applied ``observe``.

    An earlier snapshot read ``count`` and ``total`` with no lock, so a
    snapshot taken mid-``observe`` reported a mean from a torn pair.
    Force that interleaving: hold the histogram's lock with an
    observation half applied (count bumped, total not yet) and take a
    snapshot on another thread.  It must wait for the lock, and once
    the observation completes it must see the whole of it.
    """
    histogram = LatencyHistogram(capacity=64)
    histogram.observe(0.001)
    with histogram._lock:
        histogram.count += 1
        reader, snapshots = _snapshot_on_a_thread(histogram.snapshot)
        reader.join(timeout=0.2)
        returned_early = not reader.is_alive()
        histogram.total += 0.001
        histogram._samples.append(0.001)
    reader.join(timeout=5.0)
    assert not returned_early, "snapshot read a half-applied observe"
    (snapshot,) = snapshots
    assert snapshot["count"] == 2
    assert snapshot["mean_ms"] == pytest.approx(1.0)
    assert snapshot["max_ms"] == pytest.approx(1.0)


def test_service_metrics_snapshot_under_concurrent_updates():
    metrics = ServiceMetrics(histogram_capacity=32)

    def write():
        for _ in range(200):
            metrics.record_request("all_fields")
            metrics.record_shed()
            metrics.record_negative_hit()
            metrics.record_latency("all_fields", 0.001)

    def read():
        for _ in range(200):
            snap = metrics.snapshot()
            assert snap["shed"] >= 0
            assert snap["total_requests"] == sum(snap["requests"].values())

    threads = ([threading.Thread(target=write) for _ in range(3)]
               + [threading.Thread(target=read) for _ in range(2)])
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    final = metrics.snapshot()
    assert final["shed"] == 600
    assert final["negative_hits"] == 600
    assert final["total_requests"] == 600


def test_a_hit_and_a_miss_recorded_at_once_lose_no_count():
    """``record_hit`` (the event loop) beside ``record_request`` +
    ``record_latency`` (a worker's miss) and ``snapshot`` readers: every
    count lands once, in the requests and in both histograms."""
    metrics = ServiceMetrics(histogram_capacity=32)
    rounds, writers = 300, 3
    interval = sys.getswitchinterval()

    def hit():
        for _ in range(rounds):
            metrics.record_hit("all_fields", 0.001)

    def miss():
        for _ in range(rounds):
            metrics.record_request("all_fields")
            metrics.record_latency("all_fields", 0.002)

    def read():
        for _ in range(rounds):
            snap = metrics.snapshot()
            assert snap["total_requests"] == sum(snap["requests"].values())

    threads = ([threading.Thread(target=hit) for _ in range(writers)]
               + [threading.Thread(target=miss) for _ in range(writers)]
               + [threading.Thread(target=read) for _ in range(2)])
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    final = metrics.snapshot()
    total = 2 * writers * rounds
    assert final["requests"] == {"all_fields": total}
    assert final["latency"]["overall"]["count"] == total
    assert final["latency"]["all_fields"]["count"] == total


def test_cache_stats_snapshot_races_with_lookups():
    """``stats_snapshot`` must not read a half-applied ``claim``.

    A claim that finds a stale entry counts an invalidation and then a
    miss under one lock hold, so no consistent snapshot shows more
    invalidations than misses.  An earlier version read the counters
    lock-free.  Force the interleaving: hold the cache's lock with such
    a claim half applied (invalidation counted, miss not yet) and take
    the snapshot on another thread.  It must wait for the lock, and see
    both counts once the claim completes.
    """
    cache = ResultCache(max_entries=8, ttl_seconds=60.0)
    key = ("q", (("query", "vaccine"),))
    _, flight, _ = cache.claim(key, (1,))
    cache.complete(flight, (1,), "page")
    with cache._lock:
        del cache._entries[key]
        cache.stats.invalidations += 1
        reader, snapshots = _snapshot_on_a_thread(cache.stats_snapshot)
        reader.join(timeout=0.2)
        returned_early = not reader.is_alive()
        cache.stats.misses += 1
    reader.join(timeout=5.0)
    assert not returned_early, "stats_snapshot read a half-applied claim"
    (stats,) = snapshots
    assert stats["invalidations"] == 1
    assert stats["misses"] == 2


# -- PR 8: leaks the interprocedural rules (REP208-REP211) surfaced --------

def test_client_connect_closes_socket_when_setsockopt_fails(monkeypatch):
    """REP211 regression: a socket must not leak when tuning it fails.

    ``GatewayClient._connect`` used to create the connection and then
    set TCP_NODELAY with no guard — a raise between the two stranded
    the connected socket.  The fix closes it on any failure after
    creation.
    """
    import socket as socket_module

    from repro.gateway.client import GatewayClient

    class FakeSock:
        def __init__(self) -> None:
            self.closed = False

        def setsockopt(self, *args):
            raise OSError("setsockopt denied")

        def close(self) -> None:
            self.closed = True

    fake = FakeSock()
    monkeypatch.setattr(socket_module, "create_connection",
                        lambda *a, **kw: fake)
    client = GatewayClient("127.0.0.1", 1)
    with pytest.raises(OSError, match="setsockopt denied"):
        client._connect()
    assert fake.closed
    assert client.connects == 0


def test_worker_pool_thread_start_failure_reaps_started_workers(
        monkeypatch):
    """Partial thread start-up must not strand the started workers.

    If the Nth worker thread fails to start, the N-1 already running
    are parked on the queue; without sentinels they would idle forever
    (a daemon-thread leak per failed pool).
    """
    real_start = threading.Thread.start
    starts = {"count": 0}

    def flaky_start(self):
        if self.name.startswith("doomed-pool-worker"):
            starts["count"] += 1
            if starts["count"] == 3:
                raise RuntimeError("can't start new thread")
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", flaky_start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        WorkerPool(num_workers=4, name="doomed-pool")
    monkeypatch.undo()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        alive = [t for t in threading.enumerate()
                 if t.name.startswith("doomed-pool-worker")]
        if not alive:
            break
        time.sleep(0.01)
    assert not alive, f"stranded worker threads: {alive}"
