"""``repro.gateway``: the asyncio HTTP/JSON front end over the serving tier.

The paper serves covidkg.org as an interactive web system — three
search engines plus KG search answered over HTTP for many concurrent
users.  This package is that network edge for the reproduction: a
dependency-free HTTP/1.1 server (stdlib ``asyncio`` only) that
multiplexes thousands of keep-alive connections on one event loop and
executes every query through the existing
:class:`~repro.serve.QueryService`, so caching and admission control
apply unchanged behind the socket.

Endpoints::

    GET /v1/search/all_fields?query=...&page=N
    GET /v1/search/title_abstract?title=...&abstract=...&caption=...
    GET /v1/search/table?query=...&page=N
    GET /v1/kg/search?query=...&top_k=N
    GET /v1/healthz
    GET /v1/stats        # ServiceMetrics + gateway gauges
    GET /v1/metrics      # Prometheus text exposition

Every error is a machine-readable JSON body
``{"error": {"code", "message", "request_id"}}`` with a typed status
(503 shed, 504 deadline, 400 bad request, ...).

The names in ``__all__`` are imported on first access
(:mod:`repro._lazy`): the wire modules (:mod:`~repro.gateway.http`,
:mod:`~repro.gateway.client`) depend on nothing but
:mod:`repro.errors`, and the cluster router imports exactly those two
— it must not load the server, the routes and through them the
engines just because they share this package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.gateway.client import ClientResponse, GatewayClient
    from repro.gateway.http import (
        Request,
        Response,
        build_response,
        parse_request_head,
    )
    from repro.gateway.routes import (
        ERROR_STATUS,
        all_error_classes,
        map_error,
        render_prometheus,
        serialize_served,
    )
    from repro.gateway.server import BackgroundGateway, Gateway, run_gateway
    from repro.serve.service import GatewayConfig

__all__ = [
    "ERROR_STATUS",
    "BackgroundGateway",
    "ClientResponse",
    "Gateway",
    "GatewayClient",
    "GatewayConfig",
    "Request",
    "Response",
    "all_error_classes",
    "build_response",
    "map_error",
    "parse_request_head",
    "render_prometheus",
    "run_gateway",
    "serialize_served",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.gateway.client": ("ClientResponse", "GatewayClient"),
    "repro.gateway.http": ("Request", "Response", "build_response",
                           "parse_request_head"),
    "repro.gateway.routes": ("ERROR_STATUS", "all_error_classes",
                             "map_error", "render_prometheus",
                             "serialize_served"),
    "repro.gateway.server": ("BackgroundGateway", "Gateway", "run_gateway"),
    "repro.serve.service": ("GatewayConfig",),
})
