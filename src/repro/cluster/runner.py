"""Boot a whole serving cluster from one command.

``repro-covidkg cluster --replicas N`` turns into:

1. an in-process :class:`~repro.cluster.cacheserver.SharedCacheServer`
   (the shared L2 result cache, doubling as the replica coordinator);
2. ``N`` replica gateways, each a ``repro-covidkg gateway`` subprocess
   serving the *same* saved system with ``--shared-cache`` pointing at
   the cache server — every replica registers itself with the
   coordinator once its socket is bound;
3. an in-process :class:`~repro.cluster.router.Router` in front of the
   replicas discovered from the coordinator.

The replicas share one immutable on-disk system artifact (given via
``--system``, or generated once and saved to a scratch directory), so
they all answer identically until ingest traffic — which the router
fans out to all of them — moves them forward in lockstep.

The runner is also the test/bench harness for the cluster: it exposes
the router, the cache server, and the replica ``Popen`` handles so a
test can SIGKILL a replica mid-load and assert the failover behaved.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.cluster.cacheserver import SharedCacheServer
from repro.cluster.router import ReplicaSpec, Router, RouterConfig
from repro.errors import GatewayError

logger = logging.getLogger("repro.cluster.runner")

#: Seconds every replica gets to load its system and register.
STARTUP_TIMEOUT = 120.0


@dataclass
class ClusterConfig:
    replicas: int = 2
    host: str = "127.0.0.1"
    #: Router (client-facing) port; 0 picks a free one.
    port: int = 0
    #: Saved system directory every replica loads; ``None`` generates a
    #: synthetic corpus once and saves it to a scratch directory.
    system_dir: str | None = None
    generate: int = 60
    shards: int = 4
    seed: int = 0
    workers: int = 4
    probe_interval: float = 0.25
    fail_threshold: int = 3
    #: Where replica stdout/stderr logs land; ``None`` uses the scratch
    #: directory.
    log_dir: str | None = None


class ClusterRunner:
    """Own the lifecycle of cache server + replicas + router."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        if self.config.replicas < 1:
            raise GatewayError("a cluster needs at least one replica")
        self.cache_server: SharedCacheServer | None = None
        self.router: Router | None = None
        self.processes: dict[str, subprocess.Popen] = {}
        self.log_paths: dict[str, Path] = {}
        #: Set (by ``run_cluster``'s signal handlers) to abandon a boot
        #: in progress; ``start`` then stops what it spawned and raises.
        self.stop_requested = threading.Event()
        self._scratch: tempfile.TemporaryDirectory | None = None
        self._log_handles: list[Any] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def router_port(self) -> int:
        assert self.router is not None and self.router.port is not None
        return self.router.port

    def start(self) -> "ClusterRunner":
        try:
            return self._start()
        except BaseException:
            self.stop()
            raise

    def _start(self) -> "ClusterRunner":
        config = self.config
        started = time.monotonic()
        self._scratch = tempfile.TemporaryDirectory(
            prefix="covidkg-cluster-")
        scratch = Path(self._scratch.name)
        system_dir = config.system_dir or str(
            self._build_system(scratch / "system"))
        self.cache_server = SharedCacheServer(host=config.host).start()
        log_dir = Path(config.log_dir) if config.log_dir else scratch
        log_dir.mkdir(parents=True, exist_ok=True)
        for index in range(config.replicas):
            self._spawn_replica(f"r{index}", system_dir, log_dir)
        records = self._await_registration()
        registered = time.monotonic() - started
        specs = [ReplicaSpec(
            replica_id=record["replica_id"],
            host=record["host"], port=record["port"],
            pid=record.get("pid", 0),
        ) for record in sorted(records, key=lambda r: r["replica_id"])]
        self.router = Router(specs, RouterConfig(
            host=config.host, port=config.port,
            probe_interval=config.probe_interval,
            fail_threshold=config.fail_threshold,
        )).start()
        logger.info("cluster ready in %.3f s (last replica %s registered "
                    "at +%.3f s)", time.monotonic() - started,
                    records[-1]["replica_id"], registered)
        return self

    def _build_system(self, directory: Path) -> Path:
        """Generate + save the shared corpus the replicas will load."""
        from repro.api.persistence import save_system
        from repro.api.system import CovidKG, CovidKGConfig
        from repro.corpus.generator import CorpusGenerator, GeneratorConfig

        config = self.config
        logger.info("generating %d synthetic papers for the cluster",
                    config.generate)
        system = CovidKG(CovidKGConfig(num_shards=config.shards))
        papers = CorpusGenerator(GeneratorConfig(
            seed=config.seed, papers_per_week=25,
        )).papers(config.generate)
        system.ingest(papers)
        return save_system(system, directory)

    def _spawn_replica(self, replica_id: str, system_dir: str,
                       log_dir: Path) -> None:
        assert self.cache_server is not None
        config = self.config
        log_path = log_dir / f"replica-{replica_id}.log"
        handle = open(log_path, "wb")
        self._log_handles.append(handle)
        env = dict(os.environ)
        # Children must resolve the same ``repro`` package as the
        # parent regardless of how the parent was launched.
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = package_root + (
                os.pathsep + existing if existing else "")
        command = [
            sys.executable, "-m", "repro.cli", "gateway",
            "--system", system_dir,
            "--host", config.host, "--port", "0",
            "--workers", str(config.workers),
            "--shared-cache", self.cache_server.address,
            "--replica-id", replica_id,
        ]
        process = subprocess.Popen(
            command, stdout=handle, stderr=subprocess.STDOUT, env=env)
        self.processes[replica_id] = process
        self.log_paths[replica_id] = log_path
        logger.info("replica %s spawned (pid %d, log %s)",
                    replica_id, process.pid, log_path)

    def _await_registration(self) -> list[dict[str, Any]]:
        """Block until every replica registered with the coordinator;
        return their records in registration order.

        Waits on the in-process server's own registry (woken by each
        REGISTER) in slices short enough to notice a dead replica, a
        stop request or the deadline promptly.
        """
        assert self.cache_server is not None
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            records = self.cache_server.wait_for_replicas(
                self.config.replicas, timeout=0.05)
            if len(records) >= self.config.replicas:
                return records
            if self.stop_requested.is_set():
                raise GatewayError(
                    f"stopped with {len(records)} of "
                    f"{self.config.replicas} replicas registered")
            for replica_id, process in self.processes.items():
                if process.poll() is not None:
                    raise GatewayError(
                        f"replica {replica_id} exited with code "
                        f"{process.returncode} before registering "
                        f"(log: {self.log_paths[replica_id]})")
            if time.monotonic() > deadline:
                raise GatewayError(
                    f"only {len(records)} of "
                    f"{self.config.replicas} replicas registered "
                    f"within {STARTUP_TIMEOUT:.0f}s")

    def kill_replica(self, replica_id: str) -> None:
        """SIGKILL one replica (failover tests/benchmarks)."""
        process = self.processes[replica_id]
        process.kill()
        process.wait(timeout=10.0)

    def stop(self) -> None:
        for process in self.processes.values():
            if process.poll() is None:
                process.terminate()
        for process in self.processes.values():
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                process.wait(timeout=10.0)
        if self.router is not None:
            self.router.stop()
        if self.cache_server is not None:
            self.cache_server.stop()
        for handle in self._log_handles:
            try:
                handle.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._log_handles.clear()
        if self._scratch is not None:
            self._scratch.cleanup()
            self._scratch = None

    def __enter__(self) -> "ClusterRunner":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_cluster(config: ClusterConfig) -> int:
    """Blocking CLI entry point: serve the cluster until SIGTERM/SIGINT."""
    runner = ClusterRunner(config)

    def _signalled(signum: int, frame: Any) -> None:
        runner.stop_requested.set()

    # Installed before the first replica is spawned: a signal during
    # boot must stop the replicas too, not orphan them.
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _signalled)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        runner.start()  # stops whatever it spawned before it raises
    except GatewayError as exc:
        if not runner.stop_requested.is_set():
            print(f"cluster failed to start: {exc}", file=sys.stderr,
                  flush=True)
            return 1
    else:
        assert runner.cache_server is not None
        print(f"cluster ready: router on "
              f"http://{config.host}:{runner.router_port} "
              f"({config.replicas} replica(s), shared cache on "
              f"{runner.cache_server.address})", flush=True)
        runner.stop_requested.wait()
        print("cluster stopping ...", flush=True)
        runner.stop()
    print("cluster stopped", flush=True)
    return 0
