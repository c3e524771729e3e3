"""``repro-covidkg cluster`` as a process: signals during boot.

The in-process runner behaviour (differential answers, failover, prompt
stop) lives in ``test_cluster_invalidation``; this file drives the CLI
entry point the way an orchestrator does.
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

from repro.api.persistence import save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig

SRC = Path(__file__).resolve().parent.parent / "src"
SPAWNED = re.compile(r"replica (r\d+) spawned \(pid (\d+)")


@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    system = CovidKG(CovidKGConfig(num_shards=2))
    system.ingest(CorpusGenerator(GeneratorConfig(
        seed=11, papers_per_week=25)).papers(8))
    return str(save_system(system, tmp_path_factory.mktemp("kg") / "system"))


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
        # Both replicas are still importing; nothing has registered.
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
