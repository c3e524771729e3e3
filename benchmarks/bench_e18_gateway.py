"""E18 — the HTTP gateway under hundreds of keep-alive connections.

PR 5 puts an asyncio front end (``repro.gateway``) over the serving
tier.  The claim worth measuring is the architecture's: one event-loop
thread multiplexes every socket while the bounded worker pool does the
actual query work, so piling connections onto the gateway must surface
overload as *fast 503 sheds* — never as hung connections or silently
growing queues — and the requests that are admitted must keep the
latency profile the tier had without HTTP in front.

The drive: ``E18_CONNECTIONS`` keep-alive connections (default 500),
each an asyncio client pacing requests on its own socket, against a
gateway whose service has 4 workers and a shallow admission queue.
Every ``E18_HEAVY_EVERY``-th request per connection is a heavy query,
the rest are cheap; both are a synthetic dispatch that sleeps on the
worker thread, so worker slots — not the GIL — are the contended
resource.  Measured:

* peak concurrent connections (must reach the configured count);
* responses vs. requests (every request answered: no hangs, no drops);
* 503 sheds from the admission queue (overload must be loud);
* served cheap-request p95 vs. an unloaded single-connection baseline
  (the bound: <= 2x — HTTP must not change the story).

Emits ``BENCH_e18_gateway.json``.  CI runs a reduced shape via the
``E18_*`` env knobs.
"""

import asyncio
import json
import os
import time

import pytest
from benchlib import print_table

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.gateway import BackgroundGateway
from repro.serve.service import GatewayConfig, QueryService, ServeConfig

#: Drive shape (see module docstring).
CONNECTIONS = int(os.environ.get("E18_CONNECTIONS", "500"))
DRIVE_SECONDS = float(os.environ.get("E18_SECONDS", "4.0"))
CONN_INTERVAL = float(os.environ.get("E18_INTERVAL", "0.2"))
HEAVY_EVERY = int(os.environ.get("E18_HEAVY_EVERY", "200"))
RAMP_SECONDS = float(os.environ.get("E18_RAMP", "1.0"))
BASELINE_REQUESTS = 40
CHEAP_SECONDS = 0.008
HEAVY_SECONDS = 0.016
NUM_WORKERS = 4
MAX_QUEUE = 1
#: A response slower than this counts as a hung connection.
HUNG_SECONDS = 15.0

RESULTS = {
    "experiment": "e18_gateway",
    "connections": CONNECTIONS,
    "drive_seconds": DRIVE_SECONDS,
    "conn_interval_seconds": CONN_INTERVAL,
    "heavy_every": HEAVY_EVERY,
    "num_workers": NUM_WORKERS,
    "max_queue": MAX_QUEUE,
    "scenarios": {},
}


@pytest.fixture(scope="module")
def system():
    papers = CorpusGenerator(GeneratorConfig(
        seed=118, papers_per_week=15, tables_per_paper=(0, 1),
    )).papers(24)
    kg = CovidKG(CovidKGConfig(num_shards=2))
    kg.ingest(papers)
    return kg


def _synthetic_dispatch(query, page=1):
    time.sleep(HEAVY_SECONDS if query.startswith("heavy")
               else CHEAP_SECONDS)
    return 1


def _make_tier(system):
    """A serving tier with the synthetic dispatch, plus a gateway
    config sized for the drive."""
    service = QueryService(system, ServeConfig(
        num_workers=NUM_WORKERS, max_queue=MAX_QUEUE,
    ))
    service._dispatch["all_fields"] = _synthetic_dispatch
    config = GatewayConfig(port=0, max_connections=CONNECTIONS + 64,
                           access_log=False)
    return service, config


def _percentile(values, fraction):
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       int(round(fraction * (len(ordered) - 1))))]


# -- a minimal asyncio keep-alive client -----------------------------------

class _Conn:
    """One keep-alive connection driven from the benchmark's loop."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       port)
        return cls(reader, writer)

    async def get(self, target):
        """Returns ``(status, body_bytes)`` for one GET."""
        self.writer.write(
            f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n"
            .encode("latin-1"))
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    def close(self):
        self.writer.close()


# -- the drive -------------------------------------------------------------

def _new_tally():
    return {
        "offered": 0,
        "statuses": {},
        "errors": 0,
        "hung": 0,
        "cheap_seconds": [],    # service-reported, admitted cheap only
        "cheap_wall": [],       # client-observed, admitted cheap only
    }


async def _drive_connection(port, conn_id, stop_at, tally):
    # Stagger connects across the ramp so the listen backlog never
    # sees all N SYNs in the same instant.
    await asyncio.sleep(RAMP_SECONDS * conn_id / max(CONNECTIONS, 1))
    conn = await _Conn.open(port)
    seq = 0
    try:
        while time.monotonic() < stop_at:
            kind = "heavy" if (seq + conn_id) % HEAVY_EVERY == 0 \
                else "cheap"
            target = (f"/v1/search/all_fields"
                      f"?query={kind}+c{conn_id}+s{seq}")
            tally["offered"] += 1
            started = time.monotonic()
            try:
                status, body = await asyncio.wait_for(
                    conn.get(target), timeout=HUNG_SECONDS)
            except asyncio.TimeoutError:
                tally["hung"] += 1
                return
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError):
                tally["errors"] += 1
                return
            wall = time.monotonic() - started
            tally["statuses"][status] = \
                tally["statuses"].get(status, 0) + 1
            if status == 200 and kind == "cheap":
                tally["cheap_seconds"].append(
                    json.loads(body)["seconds"])
                tally["cheap_wall"].append(wall)
            seq += 1
            await asyncio.sleep(CONN_INTERVAL)
    finally:
        conn.close()


async def _drive(port, tally):
    stop_at = time.monotonic() + RAMP_SECONDS + DRIVE_SECONDS
    await asyncio.gather(*[
        _drive_connection(port, conn_id, stop_at, tally)
        for conn_id in range(CONNECTIONS)
    ])


async def _baseline(port):
    """Sequential cheap requests on one idle connection."""
    conn = await _Conn.open(port)
    seconds = []
    try:
        for index in range(BASELINE_REQUESTS):
            status, body = await conn.get(
                f"/v1/search/all_fields?query=cheap+base+{index}")
            assert status == 200, f"unloaded baseline got {status}"
            seconds.append(json.loads(body)["seconds"])
    finally:
        conn.close()
    return seconds


def test_e18_gateway_under_connection_flood(system):
    service, config = _make_tier(system)
    with service:
        with BackgroundGateway(service, config) as gw:
            unloaded = asyncio.run(_baseline(gw.port))
    unloaded_p95 = _percentile(unloaded, 0.95)

    service, config = _make_tier(system)
    with service:
        with BackgroundGateway(service, config) as gw:
            tally = _new_tally()
            asyncio.run(_drive(gw.port, tally))
            gw_stats = gw.gateway.metrics.snapshot()
            service_stats = service.stats()

    served = tally["statuses"].get(200, 0)
    shed = tally["statuses"].get(503, 0)
    other = tally["offered"] - served - shed - tally["errors"] \
        - tally["hung"]
    answered = sum(tally["statuses"].values())
    cheap_p95 = _percentile(tally["cheap_seconds"], 0.95)
    cheap_wall_p95 = _percentile(tally["cheap_wall"], 0.95)

    RESULTS["scenarios"] = {
        "unloaded_cheap_p95_s": unloaded_p95,
        "flood": {
            "offered": tally["offered"],
            "answered": answered,
            "served_200": served,
            "shed_503": shed,
            "other_status": other,
            "errors": tally["errors"],
            "hung": tally["hung"],
            "cheap_samples": len(tally["cheap_seconds"]),
            "cheap_p95_s": cheap_p95,
            "cheap_wall_p95_s": cheap_wall_p95,
            "peak_connections": gw_stats["connections"]["peak"],
            "connections_total": gw_stats["connections"]["total"],
            "service_shed": service_stats["shed"],
        },
    }

    print_table(
        "E18: gateway under a keep-alive connection flood",
        ["conns (peak)", "offered", "200", "503 shed", "hung",
         "cheap p95 ms", "unloaded ms"],
        [[
            f"{CONNECTIONS} ({gw_stats['connections']['peak']})",
            tally["offered"], served, shed, tally["hung"],
            f"{cheap_p95 * 1e3:.2f}" if cheap_p95 else "-",
            f"{unloaded_p95 * 1e3:.2f}",
        ]],
        note=f"{gw_stats['connections']['total']} connection(s) total "
             f"(keep-alive: {tally['offered']} requests), "
             f"client-observed cheap p95 "
             f"{cheap_wall_p95 * 1e3:.2f}ms",
    )

    # The acceptance criteria, in order: the configured connection
    # count was actually concurrent; every request was answered (no
    # hung connections, no dropped responses); overload surfaced as
    # loud 503 sheds; and the admitted cheap requests kept the tier's
    # latency bound despite HTTP and 500 sockets in front.
    assert gw_stats["connections"]["peak"] >= CONNECTIONS
    assert tally["hung"] == 0, f"{tally['hung']} connection(s) hung"
    assert tally["errors"] == 0, \
        f"{tally['errors']} connection error(s)"
    assert answered == tally["offered"]
    assert shed > 0, "overload too weak: the admission queue never shed"
    assert service_stats["shed"] > 0
    assert len(tally["cheap_seconds"]) >= 10, \
        "too few admitted cheap requests to estimate p95"
    assert cheap_p95 <= 2.0 * unloaded_p95, (
        f"cheap p95 {cheap_p95 * 1e3:.2f}ms vs unloaded "
        f"{unloaded_p95 * 1e3:.2f}ms"
    )
