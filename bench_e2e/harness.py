"""Process harness: build the saved system, boot/kill the cluster, read /proc.

The fleet is always its own OS process group (``start_new_session``), so one
``killpg`` reaps router, cache server and every replica; every live group is
also killed from ``atexit`` and on SIGTERM/SIGINT/SIGALRM.  An orphaned
replica on a 2-core box would skew every later run.

Why out of process: an L1 hit costs ~0.8 ms through the router to a replica
subprocess but ~2.4 ms when a ``BackgroundGateway`` shares the generator's
GIL, so an in-process server would measure the generator.
"""

from __future__ import annotations

import atexit
import json
import os
import pickle
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy

from repro.api.persistence import save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.gateway.client import GatewayClient

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
#: Scratch space of this run; its own directory, so that two runs in one
#: checkout do not delete each other's replica WALs.
TMP_DIR = OUT_DIR / "tmp" / str(os.getpid())

REPLICAS = 2
WORKERS = 2
STORE_SHARDS = 4

_READY = re.compile(
    rb"cluster ready: router on http://([\d.]+):(\d+) .*"
    rb"shared cache on ([\d.]+:\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

_live_groups: set[int] = set()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _live_groups.discard(pgid)


def kill_all_clusters() -> None:
    for pgid in list(_live_groups):
        _kill_group(pgid)


def install_cleanup() -> None:
    """Kill every cluster on exit, also when the exit is a signal (SIGALRM
    is the caller's deadline)."""
    atexit.register(kill_all_clusters)

    def _die(signum: int, frame: Any) -> None:
        raise SystemExit(f"bench_e2e: stopped by signal {signum}")

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(signum, _die)


def child_env() -> dict[str, str]:
    """Environment of the fleet: this checkout's ``src``, temp files inside
    the checkout (replica WALs and the runner's scratch use ``tempfile``)."""
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["TMPDIR"] = str(TMP_DIR)
    return env


def ensure_system(papers: list[dict[str, Any]]) -> Path:
    """Build and save the benchmark system once per checkout."""
    directory = OUT_DIR / f"system-{len(papers)}"
    if (directory / "READY").exists():
        return directory
    shutil.rmtree(directory, ignore_errors=True)
    system = CovidKG(CovidKGConfig(num_shards=STORE_SHARDS))
    system.ingest(papers)
    save_system(system, directory)
    (directory / "READY").write_text("ok\n")
    return directory


class Cluster:
    """One ``repro.cli cluster`` process group serving ``system_dir``."""

    def __init__(self, system_dir: Path) -> None:
        self.system_dir = system_dir
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.router_port = 0
        self.cache_address = ""
        #: ``/v1/cluster`` replica records (replica_id, host, port, pid).
        self.replicas: list[dict[str, Any]] = []
        self.started_at = 0.0
        self.setup_seconds = 0.0

    def __enter__(self) -> "Cluster":
        try:
            return self._start()
        except BaseException:
            self.stop()
            raise

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _start(self) -> "Cluster":
        log_dir = OUT_DIR / "logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        log_path = log_dir / "cluster.log"
        self.started_at = time.perf_counter()
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "cluster",
                 "--system", str(self.system_dir),
                 "--replicas", str(REPLICAS), "--workers", str(WORKERS),
                 "--port", "0", "--log-dir", str(log_dir)],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                start_new_session=True)
        _live_groups.add(self.process.pid)
        self._await_ready(log_path)
        with GatewayClient(self.host, self.router_port) as router:
            self.replicas = router.get("/v1/cluster").json()["replicas"]
        self._warm()
        self.setup_seconds = time.perf_counter() - self.started_at
        return self

    def _await_ready(self, log_path: Path, timeout: float = 120.0) -> None:
        assert self.process is not None
        deadline = time.monotonic() + timeout
        while True:
            match = _READY.search(log_path.read_bytes())
            if match:
                self.host = match.group(1).decode()
                self.router_port = int(match.group(2))
                self.cache_address = match.group(3).decode()
                return
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"cluster exited with code {self.process.returncode} "
                    f"before it was ready (log: {log_path})")
            if time.monotonic() > deadline:
                raise RuntimeError(f"cluster not ready within {timeout:.0f}s")
            time.sleep(0.02)

    def _warm(self) -> None:
        """Every replica answers one query per engine + KG search directly,
        then one goes through the router: lazy columnar builds are paid here,
        not in the measured window.  Each replica asks for its own page, or
        the second one would answer from the shared cache and build
        nothing."""
        errors: list[str] = []

        def warm_replica(page: int, record: dict[str, Any]) -> None:
            with GatewayClient(record["host"], record["port"]) as client:
                responses = [
                    client.search("all_fields", query="vaccine", page=page),
                    client.search("title_abstract", title="vaccine",
                                  page=page),
                    client.search("table", query="vaccine", page=page),
                    client.kg_search("vaccine"),
                ]
            errors.extend(f"{record['replica_id']}: HTTP {response.status}"
                          for response in responses
                          if response.status != 200)

        threads = [threading.Thread(target=warm_replica, args=(page, record))
                   for page, record in enumerate(self.replicas, start=1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with GatewayClient(self.host, self.router_port) as router:
            response = router.search("all_fields", query="vaccine")
        if response.status != 200:
            errors.append(f"router: HTTP {response.status}")
        if errors:
            raise RuntimeError("cluster warm-up failed: " + "; ".join(errors))

    def stop(self) -> None:
        """SIGKILL the whole group: the graceful path drains each replica
        for its full 5 s because the router holds keep-alive connections,
        and nothing here needs the WAL or scratch directories afterwards."""
        if self.process is None:
            return
        _kill_group(self.process.pid)
        self.process.wait()
        for record in self.replicas:
            _wait_gone(record["pid"])
        self.process = None
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    # -- scraping ----------------------------------------------------------

    def pids(self) -> dict[str, int]:
        assert self.process is not None
        pids = {"router": self.process.pid}
        pids.update({record["replica_id"]: record["pid"]
                     for record in self.replicas})
        return pids

    def scrape(self) -> dict[str, Any]:
        """Counters of every process at one instant (outside the window)."""
        with GatewayClient(self.host, self.router_port) as router:
            snapshot: dict[str, Any] = {
                "cluster": router.get("/v1/cluster").json(),
                "replicas": {}, "healthz": {},
            }
        for record in self.replicas:
            with GatewayClient(record["host"], record["port"]) as client:
                snapshot["replicas"][record["replica_id"]] = \
                    client.stats()["service"]
                snapshot["healthz"][record["replica_id"]] = \
                    client.healthz().json()
        snapshot["cpu_seconds"] = {name: cpu_seconds(pid)
                                   for name, pid in self.pids().items()}
        return snapshot


class SpeedMeter:
    """How fast this machine is right now, sampled ~5 times a second.

    The host loses about a third of its speed to neighbours for seconds to
    minutes at a time, on both cores at once and without showing steal
    time; raw timings of identical runs then spread 20-35%.  A sample is
    the *CPU* time one thread needs for a fixed piece of work, so waiting
    for the GIL or for a core does not count and the meter can run beside
    the load.  The work is what a request is made of -- JSON and pickle
    round trips of a result page, a regex scan, a sort -- because a tight
    integer loop, which never leaves the L1 cache, followed the real
    request path's slow-downs only loosely (correlation 0.79 against 0.97
    over 8 s blocks).  ``factor(t0, t1)`` is reference time over mean time
    in that interval: < 1 while the machine is slow.
    """

    #: CPU seconds per sample on this box when nothing contends.
    REFERENCE_SECONDS = 0.0015

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speed-meter")

    def __enter__(self) -> "SpeedMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        words = ("vaccine trial cohort antibody response placebo dose "
                 "efficacy transmission variant symptom outcome").split()
        text = " ".join(words[(7 * n) % len(words)] for n in range(400))
        page = {"results": [
            {"paper_id": f"cord-{n:07d}", "title": text[n:n + 80],
             "score": 1.0 / (n + 1),
             "snippets": {"abstract": text[n:n + 300]}}
            for n in range(10)]}
        pattern = re.compile(r"\b(?:vaccin|vaccine)\w*", re.IGNORECASE)
        while not self._stop.wait(0.2):
            started = time.thread_time()
            for _ in range(8):
                json.loads(json.dumps(page, separators=(",", ":")))
                pickle.loads(pickle.dumps(page))
                pattern.findall(text)
                sorted(text.split())
            self.samples.append((time.perf_counter(),
                                 time.thread_time() - started))

    def factor(self, since: float, until: float) -> float:
        taken = [seconds for at, seconds in self.samples
                 if since <= at <= until]
        if not taken:
            raise RuntimeError("no machine-speed sample in the interval")
        return self.REFERENCE_SECONDS * len(taken) / sum(taken)


def _wait_gone(pid: int, timeout: float = 10.0) -> None:
    """Replicas are grandchildren: nobody here can ``wait()`` on them, so
    poll until the kernel has dropped them (or left a zombie for init)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        except (FileNotFoundError, ProcessLookupError):
            return
        if state.split()[0] == "Z":
            return
        time.sleep(0.01)
    raise RuntimeError(f"process {pid} survived SIGKILL for {timeout:.0f}s")


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> dict[str, Any]:
    """One reported number, in the shape the result object wants."""
    return {"value": float(value), "unit": unit}


def environment(seed: int) -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
