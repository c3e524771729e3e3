"""``repro-covidkg cluster`` as a process: discovery and signals during
boot.

The in-process runner behaviour (differential answers, failover, prompt
stop) lives in ``test_cluster_invalidation``; this file checks how the
runner finds its replicas and drives the CLI entry point the way an
orchestrator does.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.persistence import load_system, save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.cluster.runner import READY_LINE, ClusterConfig, ClusterRunner
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import GatewayError
from repro.gateway.client import GatewayClient
from repro.ingest.engine import IngestEngine

SRC = Path(__file__).resolve().parent.parent / "src"
SPAWNED = re.compile(r"replica (r\d+) spawned \(pid (\d+)")


@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    system = CovidKG(CovidKGConfig(num_shards=2))
    system.ingest(CorpusGenerator(GeneratorConfig(
        seed=11, papers_per_week=25)).papers(8))
    return str(save_system(system, tmp_path_factory.mktemp("kg") / "system"))


def test_ready_line_is_the_printed_url_not_the_logging_line():
    """A replica's log holds both lines; only the stdout one, whole,
    names its address."""
    logged = (b"2026-10-19 15:30:00,001 repro.gateway gateway listening "
              b"on 127.0.0.1:41234\n")
    assert READY_LINE.search(logged) is None
    printing = logged + b"gateway listening on http://127.0.0.1:41234"
    assert READY_LINE.search(printing) is None  # line not ended yet
    match = READY_LINE.search(printing + b"\n")
    assert (match[1], match[2]) == (b"127.0.0.1", b"41234")


def test_replica_that_exits_before_listening_fails_boot(tmp_path):
    runner = ClusterRunner(ClusterConfig(
        replicas=1, system_dir=str(tmp_path / "missing"),
        log_dir=str(tmp_path)))
    with pytest.raises(GatewayError) as excinfo:
        runner.start()
    log_path = tmp_path / "replica-r0.log"
    assert str(excinfo.value) == (
        f"replica r0 exited with code 1 before listening (log: {log_path})")
    assert b"no saved system" in log_path.read_bytes()
    assert runner.router is None


def test_boot_failure_quotes_a_scratch_log_before_it_is_deleted():
    """Without ``--log-dir`` the replica's log lives in the scratch
    directory ``stop()`` deletes, so the message carries its last lines
    rather than a path that no longer exists."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "cluster", "--replicas", "1",
         "--system", "/nonexistent", "--port", "0"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "replica r0 exited with code 1 before listening" in result.stderr
    assert "no saved system at /nonexistent" in result.stderr


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_during_boot_stops_every_replica(system_dir, tmp_path):
    """Regression: the handlers were installed after ``start()``
    returned, so a SIGTERM in the first second killed the runner with
    the default action and re-parented its replicas to pid 1."""
    runner = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster", "--replicas", "2",
         "--system", system_dir, "--port", "0",
         "--log-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    pids: dict[str, int] = {}
    try:
        assert runner.stdout is not None
        for line in runner.stdout:
            assert "cluster ready" not in line
            match = SPAWNED.search(line)
            if match:
                pids[match.group(1)] = int(match.group(2))
            if len(pids) == 2:
                break
        # Both replicas are still importing; neither is listening.
        runner.send_signal(signal.SIGTERM)
        output, _ = runner.communicate(timeout=30)
        deadline = time.monotonic() + 10.0
        while any(map(_alive, pids.values())) and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids.values() if _alive(pid)]
    finally:
        for pid in pids.values():
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        if runner.poll() is None:
            runner.kill()
            runner.wait(timeout=10)
    assert sorted(pids) == ["r0", "r1"]
    assert "cluster ready" not in output
    assert runner.returncode == 0, output
    assert output.rstrip().endswith("cluster stopped")
    assert survivors == []


def test_a_replica_replays_its_wal_before_it_listens(system_dir, tmp_path):
    """The router never sees a replica mid-recovery: ``gateway`` applies
    every committed WAL batch before it prints the line the runner waits
    for, so its first search already finds the replayed paper."""
    paper = CorpusGenerator(GeneratorConfig(
        seed=11, papers_per_week=25)).papers(9)[-1]
    wal_dir = tmp_path / "ingest"
    with IngestEngine(load_system(system_dir), wal_dir) as engine:
        engine.commit_batch([paper])
    gateway = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "gateway",
         "--system", system_dir, "--ingest-dir", str(wal_dir),
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    try:
        assert gateway.stdout is not None
        before = b""
        for line in gateway.stdout:
            match = READY_LINE.match(line)
            if match:
                break
            before += line
        else:
            pytest.fail(f"gateway exited before listening:\n{before!r}")
        assert b"replayed 1 committed ingest batch(es)" in before
        with GatewayClient(match[1].decode(), int(match[2])) as client:
            response = client.search("all_fields", query=paper["title"])
        assert response.status == 200
        assert paper["paper_id"] in [
            hit["paper_id"] for hit in response.json()["value"]["results"]]
    finally:
        gateway.terminate()
        gateway.wait(timeout=30)
        gateway.stdout.close()
