"""E22 — zero-downtime streaming ingest (WAL + delta segments).

Paper claim: COVIDKG.ORG keeps answering queries while newly published
literature streams in (Section 2's "non-stop" classification of
incoming publications).  PRs 1-8 made every index build offline; this
experiment measures the streaming path added by ``repro.ingest``:

* **ingest-while-serving** — a reader drives the serving tier while
  batches commit through the WAL and the background merge folds delta
  segments; read p95 must stay within 2x of the cache-warm baseline
  (with a small absolute floor so sub-millisecond cache hits do not
  turn timer noise into a ratio);
* **recovery identity** — a simulated crash (fresh process + WAL
  replay) and a post-commit ``rollback()`` must both answer queries
  byte-identically to the reference states;
* **read cost vs commits** — 4-paper commits with an index refresh
  after each and no base merge: ``ColumnarIndex.extend`` keeps the
  delta tier geometric, so a kernel search after 32 commits must cost
  at most 2x the same search on the merged index (it was 4-6x with
  one delta segment per commit).  Also prints the sizing table of the
  three fold policies considered; only the geometric one ships.

Reduced CI shape: ``E22_BASE_PAPERS=60 E22_BATCHES=3 E22_READS=120``.
"""

import os
import threading
import time

import pytest
from benchlib import print_table

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.ingest.engine import IngestEngine
from repro.search.columnar import ColumnarIndex, Segment
from repro.serve.service import QueryService, ServeConfig

BASE_PAPERS = int(os.environ.get("E22_BASE_PAPERS", "200"))
BATCHES = int(os.environ.get("E22_BATCHES", "6"))
BATCH_SIZE = int(os.environ.get("E22_BATCH_SIZE", "15"))
READS = int(os.environ.get("E22_READS", "400"))

QUERIES = ["covid vaccine", "antibody response", "clinical trial",
           "side effects", "transmission"]

#: The read-cost cell: 4-paper commits (``bench_e2e``'s ``mixed_ingest``
#: shape), up to the last one before a 256-doc base merge would run.
COMMIT_SIZE = 4
COMMITS = 64
#: Unmerged vs merged kernel-search p50 after 32 commits.
READ_COST_RATIO_BOUND = 2.0

#: Acceptance bound: read p95 while ingest+merge run, relative to the
#: cache-warm baseline — plus an absolute floor (seconds) below which
#: the ratio is all timer noise.
P95_RATIO_BOUND = 2.0
P95_FLOOR_SECONDS = 0.010

RESULTS = {
    "experiment": "e22_ingest",
    "base_papers": BASE_PAPERS,
    "batches": BATCHES,
    "batch_size": BATCH_SIZE,
}


@pytest.fixture(scope="module")
def corpus():
    total = BASE_PAPERS + BATCHES * BATCH_SIZE
    return CorpusGenerator(GeneratorConfig(
        seed=122, papers_per_week=50, tables_per_paper=(0, 2),
    )).papers(total)


def _system(papers):
    system = CovidKG(CovidKGConfig(num_shards=2))
    if papers:
        system.ingest(papers)
    return system


def _p95(latencies):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def _read_loop(service, count, latencies):
    for i in range(count):
        started = time.perf_counter()
        service.query("all_fields", query=QUERIES[i % len(QUERIES)])
        latencies.append(time.perf_counter() - started)


def _read_until(service, stop, minimum, latencies):
    """Read continuously until ``stop`` is set AND ``minimum`` reads ran.

    Keeps the reader alive for the whole ingest phase so the recorded
    latencies genuinely overlap the commits and merges.
    """
    i = 0
    while not stop.is_set() or len(latencies) < minimum:
        started = time.perf_counter()
        service.query("all_fields", query=QUERIES[i % len(QUERIES)])
        latencies.append(time.perf_counter() - started)
        i += 1


def test_e22_read_p95_bounded_while_ingesting(corpus, tmp_path):
    base, stream = corpus[:BASE_PAPERS], corpus[BASE_PAPERS:]
    system = _system(base)
    engine = IngestEngine(system, tmp_path / "wal",
                          merge_threshold=2 * BATCH_SIZE)
    service = QueryService(system, ServeConfig(num_workers=2))
    service.attach_ingest(engine)
    try:
        # Cache-warm baseline: one cold round, then measured reads.
        for query in QUERIES:
            service.query("all_fields", query=query)
        warm = []
        _read_loop(service, READS, warm)

        # Ingest phase: the same reader runs while batches commit and
        # the merge thread (plus an explicit concurrent merge driver)
        # folds delta segments.
        during = []
        stop_reading = threading.Event()
        reader = threading.Thread(
            target=_read_until,
            args=(service, stop_reading, READS, during))
        stop_merging = threading.Event()

        def merge_driver():
            while not stop_merging.is_set():
                engine.merge_now()
                time.sleep(0.01)

        merger = threading.Thread(target=merge_driver)
        reader.start()
        merger.start()
        receipts = []
        try:
            for number in range(BATCHES):
                batch = stream[number * BATCH_SIZE:
                               (number + 1) * BATCH_SIZE]
                receipts.append(service.submit_ingest(batch)
                                .result(timeout=120))
        finally:
            stop_reading.set()
            reader.join(timeout=300)
            stop_merging.set()
            merger.join(timeout=30)
        assert not reader.is_alive()

        accepted = sum(r.value["accepted"] for r in receipts)
        warm_p95, during_p95 = _p95(warm), _p95(during)
        bound = max(P95_RATIO_BOUND * warm_p95, P95_FLOOR_SECONDS)
        stats = engine.stats()
        RESULTS["ingest_while_serving"] = {
            "reads": len(during),
            "accepted": accepted,
            "warm_p95_ms": warm_p95 * 1000.0,
            "during_p95_ms": during_p95 * 1000.0,
            "ratio": during_p95 / max(warm_p95, 1e-9),
            "merges": stats["merges"],
            "residual_delta_rows": stats["delta_rows"]["all_fields"],
        }
        print_table(
            "E22: read p95 while streaming ingest + merge run",
            ["phase", "reads", "p50 ms", "p95 ms"],
            [
                ["cache-warm baseline", len(warm),
                 f"{sorted(warm)[len(warm) // 2] * 1000:.3f}",
                 f"{warm_p95 * 1000:.3f}"],
                ["during ingest+merge", len(during),
                 f"{sorted(during)[len(during) // 2] * 1000:.3f}",
                 f"{during_p95 * 1000:.3f}"],
            ],
            note=f"{accepted} papers committed in {BATCHES} batches; "
                 f"{stats['merges']} engine merge(s); bound "
                 f"{bound * 1000:.1f} ms",
        )
        assert accepted == len(stream)
        assert during_p95 <= bound, (
            f"read p95 {during_p95 * 1000:.2f} ms exceeds "
            f"{bound * 1000:.2f} ms while ingesting"
        )
    finally:
        service.close()
        engine.close()


def _pages(system):
    pages = {}
    for query in QUERIES:
        results = system.search(query, page=1)
        pages[query] = [
            (hit.paper_id, hit.score) for hit in results.results
        ] + [("total", results.total_matches)]
    return pages


def test_e22_crash_replay_and_rollback_byte_identity(corpus, tmp_path):
    base, stream = corpus[:BASE_PAPERS], corpus[BASE_PAPERS:]
    batch1, batch2 = stream[:BATCH_SIZE], stream[BATCH_SIZE:
                                                 2 * BATCH_SIZE]
    system = _system(base)
    with IngestEngine(system, tmp_path / "wal") as engine:
        engine.commit_batch(batch1)
        after_batch1 = _pages(system)
        engine.commit_batch(batch2)
        after_batch2 = _pages(system)

        # Post-commit rollback: batch 2 was bad, revert it.
        engine.rollback("batch-000001")
        rollback_identical = _pages(system) == after_batch1
        engine.commit_batch(batch2)  # restore for the crash below

    # Simulated crash: a fresh process rebuilds the base and replays.
    recovered = _system(base)
    with IngestEngine(recovered, tmp_path / "wal") as engine:
        replayed = engine.replay()
        replay_identical = _pages(recovered) == after_batch2

    RESULTS["recovery"] = {
        "replayed_batches": replayed,
        "replay_byte_identical": replay_identical,
        "rollback_byte_identical": rollback_identical,
    }
    print_table(
        "E22: recovery identity",
        ["path", "byte-identical"],
        [
            ["WAL crash replay (2 committed, 1 rolled back)",
             replay_identical],
            ["rollback('batch-000001') after bad batch",
             rollback_identical],
        ],
    )
    assert rollback_identical
    assert replay_identical


def _search_p50_ms(system, rounds=15):
    """Median uncached kernel search over ``QUERIES``, in ms."""
    samples = []
    for _ in range(rounds):
        for query in QUERIES:
            started = time.perf_counter()
            system.search(query)
            samples.append(time.perf_counter() - started)
    return sorted(samples)[len(samples) // 2] * 1000.0


def _timed_segment(rows, fields, offset):
    started = time.perf_counter()
    segment = Segment(rows, fields, offset)
    return segment, (time.perf_counter() - started) * 1000.0


def test_e22_read_cost_vs_commits(tmp_path):
    papers = CorpusGenerator(GeneratorConfig(
        seed=122, papers_per_week=50, tables_per_paper=(0, 2),
    )).papers(BASE_PAPERS + COMMITS * COMMIT_SIZE)
    system = _system(papers[:BASE_PAPERS])
    corpus = system.search_corpus
    cost = {0: _search_p50_ms(system)}
    fold_ms, refold_ms, policy_rows = [], [], []

    def with_index(index):
        """Search p50 with ``index`` installed, then the live one back."""
        live, corpus._columnar = corpus._columnar, index
        try:
            return _search_p50_ms(system)
        finally:
            corpus._columnar = live

    with IngestEngine(system, tmp_path / "wal",
                      merge_threshold=10 ** 9) as engine:
        for k in range(1, COMMITS + 1):
            start = BASE_PAPERS + (k - 1) * COMMIT_SIZE
            engine.commit_batch(papers[start:start + COMMIT_SIZE])
            started = time.perf_counter()
            index = corpus.columnar_index()
            fold_ms.append((time.perf_counter() - started) * 1000.0)
            assert index.delta_rows == k * COMMIT_SIZE
            assert index.delta_segments <= index.delta_rows.bit_length()
            assert engine.stats()["delta_segments"] == index.delta_segments

            base, fields = index.segments[0], index.field_names
            rows = [row for segment in index.segments[1:]
                    for row in segment.documents]
            # What "fold every delta into one on each commit" would pay.
            refolded, took = _timed_segment(rows, fields, BASE_PAPERS)
            refold_ms.append(took)

            if k in (8, 32):
                pages = _pages(system)
                cost[k] = _search_p50_ms(system)
                assert corpus.merge_segments()  # a one-shot build
                assert _pages(system) == pages
                cost[k, "merged"] = _search_p50_ms(system)
                corpus._columnar = index
            # The tier is deepest one commit before a power of two and
            # a single delta on it: report both.
            if k in (15, 16, 31, 32, 63, 64):
                singles = [
                    _timed_segment(rows[at:at + COMMIT_SIZE], fields,
                                   BASE_PAPERS + at)
                    for at in range(0, len(rows), COMMIT_SIZE)
                ]
                unfolded = ColumnarIndex(
                    index.stamp, [base] + [seg for seg, _ in singles],
                    fields)
                policy_rows += [
                    [k, "none (parent)", unfolded.delta_segments,
                     with_index(unfolded),
                     sum(ms for _, ms in singles) / k],
                    [k, "geometric x2 (ships)", index.delta_segments,
                     _search_p50_ms(system), sum(fold_ms) / k],
                    [k, "refold all deltas", 1,
                     with_index(ColumnarIndex(index.stamp,
                                              [base, refolded], fields)),
                     sum(refold_ms) / k],
                ]

    ratio = cost[32] / cost[32, "merged"]
    RESULTS["read_cost_vs_commits"] = {
        "search_p50_ms": {str(key): value for key, value in cost.items()},
        "unmerged_over_merged_at_32": ratio,
        "fold_ms_per_commit": sum(fold_ms) / COMMITS,
        "largest_fold_ms": max(fold_ms),
    }
    print_table(
        "E22: kernel-search p50 vs commits since the base was built",
        ["commits", "index", "search p50 ms"],
        [[0, "base only", cost[0]],
         [8, "base + deltas", cost[8]],
         [8, "merged", cost[8, "merged"]],
         [32, "base + deltas", cost[32]],
         [32, "merged", cost[32, "merged"]]],
        note=f"{COMMIT_SIZE}-paper commits on {BASE_PAPERS} base papers, "
             f"refresh after each, no base merge; unmerged / merged at "
             f"32 = {ratio:.2f} (bound {READ_COST_RATIO_BOUND})",
    )
    print_table(
        "E22: fold policy sizing (only the geometric policy is in the code)",
        ["commits", "policy", "delta segments", "search p50 ms",
         "fold ms / commit"],
        policy_rows,
        note=f"fold ms is the mean over the commits so far; largest "
             f"single geometric fold {max(fold_ms):.1f} ms",
    )
    assert ratio <= READ_COST_RATIO_BOUND, (
        f"a search after 32 commits costs {ratio:.2f}x the merged index"
    )
