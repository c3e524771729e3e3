"""Tests of the benchmark itself.  Run explicitly:

    python -m pytest bench_e2e -q

(tier-1 ``testpaths`` is ``tests`` only, on purpose: this boots clusters.)
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run  # noqa: F401 - puts this checkout's src/ on sys.path
import compare
import harness
import oracle
from workloads import WORKLOADS, Corpus, generate

BENCHMARK = json.loads(
    (harness.REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return Corpus(run.SMOKE_PAPERS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_seed_one_request_list(corpus: Corpus, name: str) -> None:
    first = generate(name, 7, corpus, scale=0.1, write_batches=3)
    again = generate(name, 7, corpus, scale=0.1, write_batches=3)
    other = generate(name, 8, corpus, scale=0.1, write_batches=3)
    assert first.fingerprint() == again.fingerprint()
    assert first.fingerprint() != other.fingerprint()
    if first.distinct:
        assert len({request.target for request in first.pool}) == \
            len(first.pool)


def test_reads_are_known_items(corpus: Corpus) -> None:
    """>= 90% of generated reads match at least one paper on the reference
    system, so the benchmark is not measuring the empty-result path."""
    reference = oracle.Reference(harness.ensure_system(corpus.papers))
    try:
        for name in WORKLOADS:
            workload = generate(name, 7, corpus, scale=0.1)
            requests = oracle.sample(workload.pool, seed=7)
            matched = 0
            for request in requests:
                answer = reference.answer(request)
                rows = answer if isinstance(answer, list) else \
                    answer.get("results", answer.get("rows"))
                matched += bool(rows)
            assert matched >= 0.9 * len(requests), (name, matched)
    finally:
        reference.close()


def test_declared_names_are_legal() -> None:
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in BENCHMARK[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == \
        list(WORKLOADS)
    assert BENCHMARK["paths"] == [harness.BENCH_DIR.name]


def _bench_processes() -> list[str]:
    found = []
    for path in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            cmdline = path.read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if "repro.cli" in cmdline and str(harness.OUT_DIR) in cmdline:
            found.append(cmdline)
    return found


def test_smoke_emits_every_declared_metric() -> None:
    """Both modes, all four workloads, in < 90 s, leaving no process."""
    started = time.monotonic()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "run.py"), "--smoke",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        results = [json.loads(line) for line in done.stdout.splitlines()
                   if line.startswith('{"correct"')]
        assert len(results) == len(WORKLOADS)
        declared = {entry["name"]: entry["unit"]
                    for entry in BENCHMARK[group]}
        for result in results:
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert {name: entry["unit"] for name, entry
                    in result["metrics"].items()} == declared
    assert time.monotonic() - started < 90
    assert _bench_processes() == []


def test_compare_verdicts() -> None:
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.verdict(parent, parent, lower=True,
                           bound=0.1)[0] == "same"
    assert compare.verdict(parent, [v * 0.8 for v in parent], lower=True,
                           bound=0.1)[0] == "better"
    assert compare.verdict(parent, [v * 1.2 for v in parent], lower=True,
                           bound=0.1)[0] == "worse"
    assert compare.verdict(parent, [v * 1.2 for v in parent], lower=False,
                           bound=0.1)[0] == "better"
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 15.0, 6.0, 11.0, 8.0, 13.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], lower=True,
                           bound=0.1)[0] == "unresolved"
