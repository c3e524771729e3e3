"""Differential correctness check against a single-process reference.

The reference is the same saved system loaded into this process and asked
through ``QueryService`` with the gateway's own parameter validation and
``serialize_value`` -- the answer one process would give.  A routed response
must carry the same ``value`` (total_matches, ordered paper_ids, scores,
snippets, KG rows); only the ``seconds`` timing fields may differ.  For
``mixed_ingest`` the reference first applies the same batches in the same
order, and the replicas must agree on their version vectors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.api.persistence import load_system
from repro.gateway.client import GatewayClient
from repro.gateway.http import parse_request_head
from repro.gateway.routes import resolve, serialize_value
from repro.serve.service import QueryService, ServeConfig

from loadgen import send
from workloads import IngestBatch, Request

SAMPLES = 50


def _without_timings(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _without_timings(item) for key, item in value.items()
                if key != "seconds"}
    if isinstance(value, list):
        return [_without_timings(item) for item in value]
    return value


def engine_call(request: Request) -> tuple[str, dict[str, Any]]:
    """The ``QueryService`` engine and kwargs the gateway derives."""
    parsed = parse_request_head(
        f"{request.method} {request.target} HTTP/1.1\r\n\r\n".encode())
    endpoint = resolve(parsed.path)
    return endpoint.engine, endpoint.params(parsed)


class Reference:
    def __init__(self, system_dir: Path) -> None:
        self.service = QueryService(load_system(system_dir),
                                    ServeConfig(num_workers=1))

    def close(self) -> None:
        self.service.close()

    def apply(self, batches: list[IngestBatch]) -> None:
        for batch in batches:
            self.service.ingest(batch.papers)

    def answer(self, request: Request) -> Any:
        engine, kwargs = engine_call(request)
        value = serialize_value(self.service.query(engine, **kwargs).value)
        # Through JSON, as the routed answer came: tuples become lists.
        return _without_timings(json.loads(json.dumps(value, default=str)))


def sample(requests: list[Request], seed: int) -> list[Request]:
    rng = np.random.default_rng([seed, 0x0AC1E])
    count = min(SAMPLES, len(requests))
    return [requests[i] for i in rng.choice(len(requests), size=count,
                                            replace=False)]


def mismatches(reference: Reference, host: str, port: int,
               requests: list[Request]) -> list[str]:
    """Send each request through the router; describe every disagreement."""
    found = []
    with GatewayClient(host, port) as client:
        for request in requests:
            response = send(client, request)
            if response.status != 200:
                found.append(f"{request.target}: HTTP {response.status}")
                continue
            got = _without_timings(response.json()["value"])
            if got != reference.answer(request):
                found.append(f"{request.target}: differs from reference")
    return found


def fleet_disagreements(scrape: dict[str, Any]) -> list[str]:
    """Replicas that diverged, were ejected, or report other versions."""
    found = [
        f"replica {state['replica_id']} is "
        + ("diverged" if state["diverged"] else "ejected")
        for state in scrape["cluster"]["replicas"]
        if state["diverged"] or state["ejected"]]
    vectors = {replica: health["versions"]
               for replica, health in scrape["healthz"].items()}
    if len({json.dumps(vector, sort_keys=True)
            for vector in vectors.values()}) > 1:
        found.append(f"replica version vectors differ: {vectors}")
    return found
