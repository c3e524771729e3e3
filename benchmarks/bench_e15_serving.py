"""E15 — the serving tier: cached vs. cold throughput under load.

The paper serves covidkg.org's search engines to interactive web users;
the ROADMAP's north star is "heavy traffic from millions of users".
This experiment measures what the ``repro.serve`` tier buys on the
workload that traffic actually has: a small set of popular queries
repeated by many concurrent clients.

Regenerates/claims:

* a cache-warm repeated-query workload sustains **>= 5x** the
  throughput of recomputing every request against the bare system;
* ``QueryService.stats()`` reports non-zero hit/miss counters and
  latency percentiles for the run;
* admission control sheds (``ServiceOverloadedError``) instead of
  queueing unboundedly when offered load exceeds the configured bound.
"""

import threading
import time

import pytest
from benchlib import print_table

from repro.api.system import CovidKG
from repro.errors import ServiceOverloadedError
from repro.serve.service import QueryService, ServeConfig

#: The popular-query mix every client replays.
QUERIES = ["vaccine side effects", "covid symptoms", "dosage trial",
           "pfizer children", "side effects"]
CLIENTS = 4
ROUNDS_PER_CLIENT = 10


@pytest.fixture(scope="module")
def system(small_corpus):
    kg = CovidKG()
    kg.ingest(small_corpus)
    return kg


def _drive(issue_one):
    """Run the concurrent repeated-query workload; returns requests/s."""
    errors = []

    def client(client_id):
        try:
            for round_number in range(ROUNDS_PER_CLIENT):
                for query in QUERIES:
                    issue_one(query)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    assert not errors, f"workload raised: {errors!r}"
    total = CLIENTS * ROUNDS_PER_CLIENT * len(QUERIES)
    return total, seconds, total / seconds


def test_e15_cached_vs_cold_throughput(system):
    # Baseline: every request recomputes on the bare system.  The bare
    # engines are not safe under concurrent mutation, but this workload
    # is read-only, so direct concurrent calls are the honest baseline.
    cold_total, cold_seconds, cold_rps = _drive(
        lambda query: system.search(query, page=1)
    )

    config = ServeConfig(num_workers=CLIENTS, max_queue=256)
    with QueryService(system, config) as service:
        for query in QUERIES:  # warm the cache once per distinct query
            service.query("all_fields", query=query, page=1)
        warm_total, warm_seconds, warm_rps = _drive(
            lambda query: service.query("all_fields", query=query, page=1)
        )
        stats = service.stats()

    speedup = warm_rps / cold_rps
    print_table(
        "E15: serving tier, cached vs cold (concurrent repeated queries)",
        ["mode", "requests", "seconds", "req/s", "speedup"],
        [
            ["cold (bare CovidKG)", cold_total, cold_seconds,
             cold_rps, 1.0],
            ["warm (QueryService cache)", warm_total, warm_seconds,
             warm_rps, speedup],
        ],
        note=f"{CLIENTS} clients x {ROUNDS_PER_CLIENT} rounds x "
             f"{len(QUERIES)} queries; cache hits {stats['cache']['hits']}"
             f", misses {stats['cache']['misses']}",
    )

    latency = stats["latency"]["overall"]
    print_table(
        "E15: served request latency (ms)",
        ["scope", "count", "mean", "p50", "p95", "p99", "max"],
        [
            ["request", latency["count"], latency["mean_ms"],
             latency["p50_ms"], latency["p95_ms"], latency["p99_ms"],
             latency["max_ms"]],
        ],
        note=f"single-flight collapsed {stats['collapsed_misses']} "
             f"(cache-warm workload: most requests hit before they can "
             f"collapse); negative hits {stats['negative_hits']} (no bad "
             f"requests here; the bad-request storm is EXPERIMENTS.md "
             f"'Trial: the idle parts')",
    )

    # The acceptance criteria.
    assert speedup >= 5.0, (
        f"cache-warm throughput only {speedup:.1f}x the cold baseline"
    )
    assert stats["cache"]["hits"] > 0
    assert stats["cache"]["misses"] > 0
    for label in ("p50_ms", "p95_ms", "p99_ms"):
        assert latency[label] is not None


def test_e15_admission_control_sheds_overload(system):
    config = ServeConfig(num_workers=1, max_queue=4)
    with QueryService(system, config) as service:
        release = threading.Event()
        started = threading.Event()

        def occupy_worker():
            started.set()
            release.wait(timeout=30)

        blocker = service._pool.submit(occupy_worker)
        assert started.wait(timeout=10)
        shed = 0
        admitted = []
        for i in range(32):  # distinct queries: every one misses
            try:
                admitted.append(
                    service.submit("all_fields", query=f"query {i}")
                )
            except ServiceOverloadedError:
                shed += 1
        release.set()
        blocker.result(timeout=10)
        for future in admitted:
            future.result(timeout=30)
        stats = service.stats()

    print_table(
        "E15: bounded admission under overload",
        ["offered", "admitted", "shed", "queue bound"],
        [[32, len(admitted), shed, config.max_queue]],
        note="excess load fails fast with ServiceOverloadedError",
    )
    assert shed > 0
    assert len(admitted) <= config.max_queue
    assert stats["shed"] == shed
