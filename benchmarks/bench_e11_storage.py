"""E11 — Section 2 "Storage": sharded storage accounting.

Paper claim: "Our MongoDB sharded cluster storing data and all trained
Deep-learning models and embeddings takes ~965GB for its distributed
dataset storage, with raw space consumption of more than 5TB" over
"more than 450,000 publications".

Regenerates, at laptop scale: bytes/publication of the parsed+enriched
JSON, the extrapolation to the paper's 450k documents, shard balance
under hash sharding, and insert throughput.  Shape to reproduce: the
465k-document extrapolation lands within the same order of magnitude as
965 GB / 450k ~ 2.1 MB per publication *with models and replication*;
raw parsed JSON is smaller — we report the parsed-JSON bytes/doc and the
multiplier needed to reach the paper's figure.
"""

import time

from benchlib import print_table

from repro.docstore.persistence import storage_report
from repro.docstore.sharding import ShardedCollection
from repro.search.indexing import build_search_document

PAPER_DOCS = 450_000
PAPER_BYTES = 965 * 1024 ** 3
SCAN_REPEATS = 15


def _store(corpus, num_shards=8):
    store = ShardedCollection("pubs", shard_key="paper_id",
                              num_shards=num_shards)
    for paper in corpus:
        store.insert_one(build_search_document(paper))
    return store


def _per_shard_scan_p95(store, repeats=SCAN_REPEATS):
    """p95 full-scan latency per shard, in milliseconds.

    A fan-out read costs the sum of its shards' scans; the per-shard
    spread is the skew statistic.
    """
    rows = []
    for index, shard in enumerate(store.shards):
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            shard.find({}).to_list()
            samples.append(time.perf_counter() - started)
        samples.sort()
        rank = min(len(samples) - 1, round(0.95 * (len(samples) - 1)))
        rows.append([index, len(shard), samples[rank] * 1000.0])
    return rows


def test_e11_storage_accounting(medium_corpus, benchmark):
    store = _store(medium_corpus)
    report = storage_report(store)
    extrapolated = report.extrapolate_bytes(PAPER_DOCS)
    multiplier = PAPER_BYTES / extrapolated

    print_table(
        "E11: storage accounting (paper: 450k pubs ~ 965 GB distributed)",
        ["metric", "value"],
        [
            ["documents stored", report.num_documents],
            ["total bytes", report.total_bytes],
            ["bytes/document", f"{report.bytes_per_document:.0f}"],
            ["extrapolated to 450k docs",
             f"{extrapolated / 1024 ** 3:.2f} GiB"],
            ["paper's figure", "965 GiB (incl. models, indexes, replicas)"],
            ["implied overhead multiplier", f"{multiplier:.1f}x"],
            ["shard skew (max/mean)", report.shard_skew],
        ],
        note="parsed JSON alone is a fraction of 965GB; the multiplier is "
        "models+embeddings+indexes+replication",
    )

    scan_rows = _per_shard_scan_p95(store)
    p95s = [row[2] for row in scan_rows]
    print_table(
        "E11: per-shard p95 full-scan latency (fan-out reads)",
        ["shard", "documents", "p95 scan ms"],
        scan_rows,
        note=f"a fan-out read costs the sum of its shards' scans "
             f"({sum(p95s):.3f} ms at p95); the per-shard spread is the "
             f"skew statistic ({min(p95s):.3f}-{max(p95s):.3f} ms)",
    )

    # Shape: parsed JSON explains gigabytes (not kilobytes, not petabytes)
    # at 450k docs, and hash sharding balances within 2x of mean.
    assert 10 ** 8 < extrapolated < 10 ** 12
    assert report.shard_skew < 2.0
    assert len(scan_rows) == 8
    assert all(p95 > 0 for _, _, p95 in scan_rows)

    def insert_batch():
        store = ShardedCollection("tmp", shard_key="paper_id",
                                  num_shards=8)
        for paper in medium_corpus[:50]:
            store.insert_one(build_search_document(paper))
        return store

    benchmark(insert_batch)


def test_e11_shard_scaling(medium_corpus, benchmark):
    rows = []
    for num_shards in (2, 4, 8, 16):
        store = _store(medium_corpus[:200], num_shards=num_shards)
        report = storage_report(store)
        sizes = store.shard_sizes()
        rows.append([num_shards, min(sizes), max(sizes),
                     report.shard_skew])
        assert min(sizes) > 0  # no empty shard at 200 docs
    print_table(
        "E11b: shard balance vs shard count (hash sharding, 200 docs)",
        ["shards", "min docs", "max docs", "skew"],
        rows,
    )
    store = _store(medium_corpus[:200], num_shards=8)
    benchmark(lambda: storage_report(store))
