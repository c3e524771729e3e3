"""Closed-loop load generator: N client threads, one keep-alive socket each.

Closed loop because the callers modelled here wait for their result page
before asking for the next one; an open-loop rate sweep did not repeat
within a tenth on a shared 2-core box.  A slow system therefore receives
less load -- read ``throughput_rps`` and the latencies together.

The hot path checks the status line and looks for empty-result markers by
substring; only oracle samples are JSON-decoded.  The generator's own CPU use is reported
(``busy_share``) so a saturated generator is visible in the results.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.errors import GatewayError
from repro.gateway.client import GatewayClient

from workloads import IngestBatch, Request, Workload

_JSON = {"Content-Type": "application/json"}
#: Give up on a read-your-write probe after this many searches.
_MAX_PROBES = 200


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def send(client: GatewayClient, request: Request):
    return client.request(request.method, request.target,
                          headers=_JSON if request.body else None,
                          body=request.body)


def is_empty(body: bytes) -> bool:
    """A search/KGQL page with no rows, or a KG search with no hits."""
    return (b'"total_matches":0,' in body or b'"results":[]' in body
            or b'"value":[]' in body)


@dataclass
class Window:
    """What one run of the closed loop observed."""

    seconds: float = 0.0
    attempted: int = 0
    ok: int = 0
    failures: list[str] = field(default_factory=list)
    #: Client-side send -> full body, generated reads only.
    latencies_ms: list[float] = field(default_factory=list)
    #: ``time.perf_counter()`` when the clients were released / all done.
    started_at: float = 0.0
    ended_at: float = 0.0
    empty: int = 0
    ingest_ack_ms: list[float] = field(default_factory=list)
    ingest_visible_ms: list[float] = field(default_factory=list)
    generator_cpu_seconds: float = 0.0
    loadavg_at_start: float = 0.0
    #: A distinct-key workload ran out of requests before the time was up.
    exhausted: bool = False

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    def merge(self, other: "Window") -> None:
        self.attempted += other.attempted
        self.ok += other.ok
        self.failures.extend(other.failures)
        self.latencies_ms.extend(other.latencies_ms)
        self.empty += other.empty
        self.ingest_ack_ms.extend(other.ingest_ack_ms)
        self.ingest_visible_ms.extend(other.ingest_visible_ms)
        self.exhausted = self.exhausted or other.exhausted


class Driver:
    """Client threads over one workload; cursors survive between runs so
    the warm-up and the measured window never replay each other's keys."""

    def __init__(self, host: str, port: int, workload: Workload,
                 threads: int, reads_per_write: int) -> None:
        self.workload = workload
        self.threads = threads
        self.reads_per_write = reads_per_write
        self.clients = [GatewayClient(host, port) for _ in range(threads)]
        self.cursors = [0] * threads
        self.lanes = [workload.order[slot::threads]
                      for slot in range(threads)]
        self.batches_sent = 0
        #: Like the cursors, carried over from the warm-up into the window.
        self.reads_since_write = 0

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def sent_batches(self) -> list[IngestBatch]:
        return self.workload.ingest[:self.batches_sent]

    def run(self, seconds: float) -> Window:
        barrier = threading.Barrier(self.threads + 1)
        parts = [Window() for _ in range(self.threads)]
        threads = [
            threading.Thread(target=self._client, daemon=True,
                             args=(slot, seconds, barrier, parts[slot]))
            for slot in range(self.threads)]
        for thread in threads:
            thread.start()
        total = Window(loadavg_at_start=os.getloadavg()[0])
        cpu_started = time.process_time()
        barrier.wait()
        total.started_at = time.perf_counter()
        for thread in threads:
            thread.join()
        total.ended_at = time.perf_counter()
        total.seconds = total.ended_at - total.started_at
        total.generator_cpu_seconds = time.process_time() - cpu_started
        for part in parts:
            total.merge(part)
        return total

    def _client(self, slot: int, seconds: float,
                barrier: threading.Barrier, window: Window) -> None:
        client = self.clients[slot]
        lane = self.lanes[slot]
        pool = self.workload.pool
        # One thread also carries the writes, like a curator's session
        # that reads, uploads, and looks for what it uploaded.  Writes are
        # paced by that thread's reads, not by the clock: on a clock, a
        # slower machine spends a larger share of its time on writes, and
        # throughput fell twice as fast as machine speed.
        writes = slot == 0 and bool(self.workload.ingest)
        barrier.wait()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if writes and self.reads_since_write >= self.reads_per_write \
                    and self.batches_sent < len(self.workload.ingest):
                self._write(client, window)
                self.reads_since_write = 0
                continue
            if writes:
                self.reads_since_write += 1
            cursor = self.cursors[slot]
            if cursor >= len(lane):
                if self.workload.distinct:
                    window.exhausted = True
                    break
                cursor = 0
            self.cursors[slot] = cursor + 1
            body = self._request(client, pool[lane[cursor]], window,
                                 window.latencies_ms)
            if body is not None and is_empty(body):
                window.empty += 1

    def _request(self, client: GatewayClient, request: Request,
                 window: Window, latencies: list[float]) -> bytes | None:
        """One round trip; the body of a 200, else ``None`` (counted)."""
        window.attempted += 1
        sent = time.perf_counter()
        try:
            response = send(client, request)
        except (OSError, GatewayError) as exc:
            client.close()
            window.failures.append(f"{request.target}: {exc!r}")
            return None
        elapsed_ms = (time.perf_counter() - sent) * 1e3
        if response.status != 200:
            # A failed request has no latency: it misses every limit.
            window.failures.append(
                f"{request.target}: HTTP {response.status} "
                f"{response.body[:120]!r}")
            return None
        latencies.append(elapsed_ms)
        window.ok += 1
        return response.body

    def _write(self, client: GatewayClient, window: Window) -> None:
        batch = self.workload.ingest[self.batches_sent]
        self.batches_sent += 1
        sent = time.perf_counter()
        if self._request(client, batch.request(), window,
                         window.ingest_ack_ms) is None:
            return
        needle = f'"paper_id":"{batch.marker_paper_id}"'.encode()
        probe = batch.probe()
        for _ in range(_MAX_PROBES):
            body = self._request(client, probe, window, [])
            if body is not None and needle in body:
                window.ingest_visible_ms.append(
                    (time.perf_counter() - sent) * 1e3)
                return
        window.attempted += 1  # the write that never became visible
        window.failures.append(
            f"{batch.marker}: not visible after {_MAX_PROBES} probes")
