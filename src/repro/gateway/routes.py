"""Gateway routing: endpoints, parameter validation, error mapping.

The route table maps URL paths onto :class:`~repro.serve.QueryService`
engines plus typed parameter specs; everything here is pure (no I/O, no
event loop) so the mapping is testable in isolation and the server file
stays about connections only.

Error fidelity is a contract: every exception class in
:mod:`repro.errors` has an **explicit** entry in :data:`ERROR_STATUS`,
and ``tests/test_gateway.py`` asserts the mapping is exhaustive — a new
error type added without a mapping fails the suite instead of falling
through to a bare 500.  Clients always receive the same machine-readable
shape::

    {"error": {"code": "...", "message": "...", "request_id": "..."}}
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite
from typing import Any

import repro.errors as errors_module
from repro.errors import BadRequestError, ReproError
from repro.gateway.http import (
    Request,
    Response,
    encode_json,
    error_payload,
    response_head,
)
from repro.kg.search import KGSearchHit
from repro.kgql import KGQLResult
from repro.search.engine import SearchResults
from repro.serve.cache import CacheKey, request_key

#: Deadlines a client may request, in milliseconds.  The ceiling stops
#: a client from parking a worker for minutes with one header.
MAX_TIMEOUT_MS = 600_000.0

#: ``repro.errors`` class -> (HTTP status, stable machine-readable code).
#: Every class must appear explicitly; resolution walks the MRO so
#: errors *derived* from these (e.g. in tests) still map sensibly.
ERROR_STATUS: dict[type[BaseException], tuple[int, str]] = {
    errors_module.ReproError: (500, "internal"),
    errors_module.DocumentError: (400, "bad_document"),
    errors_module.DuplicateKeyError: (409, "duplicate_key"),
    errors_module.QueryError: (400, "bad_query"),
    errors_module.AggregationError: (500, "aggregation_failed"),
    errors_module.ShardingError: (500, "sharding_failed"),
    errors_module.PersistenceError: (500, "persistence_failed"),
    errors_module.ParseError: (400, "unparseable_input"),
    errors_module.SchemaError: (400, "schema_violation"),
    errors_module.ModelError: (500, "model_failed"),
    errors_module.NotFittedError: (500, "model_not_fitted"),
    errors_module.GraphError: (500, "graph_failed"),
    errors_module.FusionError: (500, "fusion_failed"),
    errors_module.RegistryError: (500, "registry_failed"),
    errors_module.ServiceError: (500, "service_failed"),
    errors_module.ServiceOverloadedError: (503, "service_overloaded"),
    errors_module.DeadlineExceededError: (504, "deadline_exceeded"),
    errors_module.ServiceClosedError: (503, "service_closed"),
    errors_module.IngestError: (500, "ingest_failed"),
    errors_module.IngestRejectedError: (422, "ingest_rejected"),
    errors_module.WalCorruptionError: (500, "wal_corrupt"),
    errors_module.SnapshotNotFoundError: (404, "snapshot_not_found"),
    errors_module.KGQLError: (400, "bad_kgql"),
    errors_module.KGQLSyntaxError: (400, "kgql_syntax"),
    errors_module.GatewayError: (500, "gateway_failed"),
    errors_module.BadRequestError: (400, "bad_request"),
    errors_module.PayloadTooLargeError: (413, "request_too_large"),
}


def all_error_classes() -> list[type[BaseException]]:
    """Every concrete error class :mod:`repro.errors` exports."""
    return [
        obj for obj in vars(errors_module).values()
        if inspect.isclass(obj) and issubclass(obj, ReproError)
    ]


def map_error(exc: BaseException) -> tuple[int, str]:
    """Resolve an exception to ``(status, code)`` via its MRO."""
    for cls in type(exc).__mro__:
        entry = ERROR_STATUS.get(cls)
        if entry is not None:
            return entry
    return (500, "internal")


def error_response(exc: BaseException, request_id: str) -> Response:
    status, code = map_error(exc)
    return error_payload(status, code, str(exc) or type(exc).__name__,
                         request_id)


# -- parameter validation ---------------------------------------------------

def _require(request: Request, name: str) -> str:
    value = request.param(name)
    if value is None or not value.strip():
        raise BadRequestError(f"missing required parameter {name!r}")
    return value


def _int_param(request: Request, name: str, default: int,
               minimum: int, maximum: int) -> int:
    raw = request.param(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise BadRequestError(
            f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None
    if not minimum <= value <= maximum:
        raise BadRequestError(
            f"parameter {name!r} must be in [{minimum}, {maximum}], "
            f"got {value}"
        )
    return value


def _search_params(request: Request) -> dict[str, Any]:
    return {
        "query": _require(request, "query"),
        "page": _int_param(request, "page", 1, 1, 10_000),
    }


def _title_abstract_params(request: Request) -> dict[str, Any]:
    params: dict[str, Any] = {
        "page": _int_param(request, "page", 1, 1, 10_000),
    }
    provided = False
    for name in ("title", "abstract", "caption"):
        value = request.param(name)
        if value is not None and value.strip():
            params[name] = value
            provided = True
    if not provided:
        raise BadRequestError(
            "title_abstract search needs at least one of "
            "title=, abstract=, caption="
        )
    return params


def _kg_params(request: Request) -> dict[str, Any]:
    return {
        "query": _require(request, "query"),
        "top_k": _int_param(request, "top_k", 10, 1, 1_000),
    }


def _bool_param(request: Request, name: str) -> bool:
    raw = request.param(name)
    if raw is None:
        return False
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("", "0", "false", "no", "off"):
        return False
    raise BadRequestError(
        f"parameter {name!r} must be a boolean flag, got {raw!r}")


def _kg_query_params(request: Request) -> dict[str, Any]:
    """``/v1/kg/query``: KGQL source (or an NL question with ``nl=1``)."""
    return {
        "query": _require(request, "query"),
        "nl": _bool_param(request, "nl"),
    }


def ingest_body(request: Request) -> dict[str, Any]:
    """``POST /v1/ingest``: validate the JSON body into submit kwargs.

    Accepts either ``{"papers": [...], "skip_duplicates": bool}`` or a
    bare JSON array of papers.  Shape errors here are 400s; *content*
    errors (a paper failing the quality gate) surface later as 422
    ``ingest_rejected`` from the ingest engine itself.
    """
    if not request.body:
        raise BadRequestError("ingest needs a JSON request body")
    try:
        payload = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(
            f"ingest body is not valid JSON: {exc}") from None
    if isinstance(payload, list):
        payload = {"papers": payload}
    if not isinstance(payload, dict):
        raise BadRequestError(
            "ingest body must be a JSON object or array")
    papers = payload.get("papers")
    if not isinstance(papers, list) or not papers:
        raise BadRequestError(
            'ingest body needs a non-empty "papers" array')
    skip = payload.get("skip_duplicates", False)
    if not isinstance(skip, bool):
        raise BadRequestError(
            '"skip_duplicates" must be a JSON boolean')
    return {"papers": papers, "skip_duplicates": skip}


@dataclass(frozen=True)
class Endpoint:
    """One routable path: its metrics label and serving engine."""

    name: str  # metrics/access-log label
    engine: str | None  # QueryService engine, None for local endpoints
    params: Any = None  # Request -> validated engine kwargs


ROUTES: dict[str, Endpoint] = {
    "/v1/search/all_fields": Endpoint(
        "search.all_fields", "all_fields", _search_params),
    "/v1/search/title_abstract": Endpoint(
        "search.title_abstract", "title_abstract",
        _title_abstract_params),
    "/v1/search/table": Endpoint("search.table", "table", _search_params),
    "/v1/kg/search": Endpoint("kg.search", "kg", _kg_params),
    "/v1/kg/query": Endpoint("kg.query", "kg_query", _kg_query_params),
    "/v1/ingest": Endpoint("ingest", "ingest", ingest_body),
    "/v1/healthz": Endpoint("healthz", None),
    "/v1/stats": Endpoint("stats", None),
    "/v1/metrics": Endpoint("metrics", None),
}


def resolve(path: str) -> Endpoint | None:
    return ROUTES.get(path.rstrip("/") or "/")


def timeout_seconds(request: Request) -> float | None:
    """The request deadline: ``timeout_ms`` param or header, else none.

    The value propagates into ``QueryService.submit(timeout_seconds=)``
    — a request still queued when it lapses fails with
    ``DeadlineExceededError`` (mapped to 504), so a slow tier can never
    silently hold a client past its own budget.
    """
    raw = request.param("timeout_ms")
    if raw is None:
        raw = request.headers.get("x-timeout-ms")
    return parse_timeout_ms(raw)


def parse_timeout_ms(raw: str | None) -> float | None:
    """A ``timeout_ms`` value in seconds, validated; ``None`` if absent."""
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise BadRequestError(
            f"timeout_ms must be a number, got {raw!r}") from None
    if not 0 < value <= MAX_TIMEOUT_MS:
        raise BadRequestError(
            f"timeout_ms must be in (0, {MAX_TIMEOUT_MS:.0f}], "
            f"got {value}"
        )
    return value / 1000.0


@dataclass(frozen=True, slots=True)
class ReadRoute:
    """What a read request's target parses into, all of it from the
    target alone: the gateway keeps it per target (its hit lane's
    memo) so a repeated target is parsed once."""

    endpoint: Endpoint
    #: The endpoint's validated engine kwargs.
    params: dict[str, Any]
    #: ``request_key(endpoint.engine, params)``.
    key: CacheKey
    #: The target's own ``timeout_ms`` in seconds; ``None`` when it has
    #: none, and then an ``X-Timeout-Ms`` header applies.
    timeout: float | None

    def timeout_seconds(self, request: Request) -> float | None:
        """:func:`timeout_seconds` of a ``request`` for this target."""
        if self.timeout is not None:
            return self.timeout
        return parse_timeout_ms(request.headers.get("x-timeout-ms"))


def read_route(endpoint: Endpoint, request: Request) -> ReadRoute:
    """Validate a read request's target into its :class:`ReadRoute`.

    The parameters are checked before ``timeout_ms``, so a target bad in
    both is refused for its parameter.
    """
    params = endpoint.params(request)
    return ReadRoute(endpoint, params, request_key(endpoint.engine, params),
                     parse_timeout_ms(request.param("timeout_ms")))


# -- result serialization ---------------------------------------------------

def serialize_value(value: Any) -> Any:
    """A served engine result as a JSON-safe payload."""
    if isinstance(value, SearchResults):
        return {
            "query": value.query,
            "page": value.page,
            "num_pages": value.num_pages,
            "total_matches": value.total_matches,
            "seconds": value.seconds,
            "results": [
                {
                    "paper_id": hit.paper_id,
                    "title": hit.title,
                    "score": hit.score,
                    "snippets": hit.snippets,
                    "extras": hit.extras,
                }
                for hit in value.results
            ],
        }
    if isinstance(value, KGQLResult):
        return value.to_json()
    if isinstance(value, list) and value and \
            isinstance(value[0], KGSearchHit):
        return [_serialize_kg_hit(hit) for hit in value]
    if isinstance(value, list):
        return value
    return value


def _serialize_kg_hit(hit: KGSearchHit) -> dict[str, Any]:
    return {
        "label": hit.node.label,
        "score": hit.score,
        "path": hit.path_labels,
        "rendered_path": hit.rendered_path(),
        "papers": list(hit.papers),
    }


def _envelope(served: Any, request_id: str) -> dict[str, Any]:
    """Everything in a served body except the (last) ``value`` key."""
    return {
        "engine": served.engine,
        "request_id": request_id,
        "cached": served.cached,
        "collapsed": served.collapsed,
        "seconds": served.seconds,
        "versions": list(served.versions),
    }


def serialize_served(served: Any, request_id: str) -> dict[str, Any]:
    """The response body for one ``ServedResult``."""
    return {**_envelope(served, request_id),
            "value": serialize_value(served.value)}


def encode_value(value: Any) -> bytes:
    """A served value's wire bytes — what an L1 entry keeps after a hit."""
    return encode_json(serialize_value(value))


def _envelope_head(served: Any, request_id: str) -> str:
    """``encode_json(_envelope(served, request_id))`` with its ``}``
    replaced by ``,"value":``.

    Rendered from a template, each field as ``json.dumps`` writes it for
    a ``ServedResult``'s types: a ``str`` through the encoder's own
    ASCII escaper, a ``bool`` as ``true`` / ``false``, an ``int`` and a
    finite ``float`` by ``repr``.  Non-finite ``seconds`` (``NaN``,
    ``Infinity``) take the ``json.dumps`` path.  ASCII either way.
    """
    seconds = served.seconds
    if not isfinite(seconds):
        return encode_json(_envelope(served, request_id))[:-1].decode(
            "ascii") + ',"value":'
    return (
        f'{{"engine":{_json_str(served.engine)},'
        f'"request_id":{_json_str(request_id)},'
        f'"cached":{"true" if served.cached else "false"},'
        f'"collapsed":{"true" if served.collapsed else "false"},'
        f'"seconds":{seconds!r},'
        f'"versions":[{",".join(map(repr, served.versions))}],'
        f'"value":'
    )


def encode_served(served: Any, request_id: str, wire: bytes) -> bytes:
    """``encode_json(serialize_served(...))`` around an encoded value.

    Splices ``wire`` (:func:`encode_value` of ``served.value``) after
    the envelope, so a page is encoded once however often it is
    served; the bytes equal the one-pass encoding exactly.  It is the
    body :func:`served_response` writes.
    """
    return _envelope_head(served, request_id).encode("ascii") + wire + b"}"


def served_response(served: Any, request_id: str, *, keep_alive: bool,
                    head_only: bool = False) -> bytes:
    """The HTTP response for a ``ServedResult`` whose ``wire`` is set.

    ``build_response(Response(body=encode_served(served, request_id,
    served.wire)), ...)`` byte for byte, but the status line, headers,
    envelope and page are joined once, so the page is copied once.
    """
    envelope = _envelope_head(served, request_id)
    wire = served.wire
    head = response_head(200, "application/json",
                         len(envelope) + len(wire) + 1,
                         request_id=request_id, persistent=keep_alive)
    if head_only:
        return head.encode("latin-1")
    return b"".join(((head + envelope).encode("latin-1"), wire, b"}"))


# -- prometheus rendering ---------------------------------------------------

def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def render_prometheus(service_stats: dict[str, Any],
                      gateway_stats: dict[str, Any]) -> str:
    """Service + gateway counters in Prometheus text exposition format.

    Only plain counters/gauges are exported (no native histograms);
    latency percentiles are published as labelled gauges the way
    serving dashboards conventionally scrape them.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, value: Any,
             labels: dict[str, str] | None = None) -> None:
        if value is None:
            return
        rendered = ""
        if labels:
            inner = ",".join(
                f'{key}="{_prom_escape(str(val))}"'
                for key, val in sorted(labels.items())
            )
            rendered = "{" + inner + "}"
        if not any(line.startswith(f"# TYPE {name} ") for line in lines):
            lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{rendered} {value}")

    connections = gateway_stats["connections"]
    emit("covidkg_gateway_connections_open", "gauge",
         connections["open"])
    emit("covidkg_gateway_connections_total", "counter",
         connections["total"])
    emit("covidkg_gateway_connections_shed_total", "counter",
         connections["shed"])
    emit("covidkg_gateway_requests_inflight", "gauge",
         gateway_stats["requests_inflight"])
    emit("covidkg_gateway_parse_errors_total", "counter",
         gateway_stats["parse_errors"])
    for endpoint, count in sorted(gateway_stats["requests"].items()):
        emit("covidkg_gateway_requests_total", "counter", count,
             {"endpoint": endpoint})
    for status, count in sorted(gateway_stats["responses"].items()):
        emit("covidkg_gateway_responses_total", "counter", count,
             {"status": status})
    for label in ("p50_ms", "p95_ms", "p99_ms"):
        emit("covidkg_gateway_request_latency_ms", "gauge",
             gateway_stats["latency"].get(label),
             {"quantile": label[:-3]})

    for engine, count in sorted(service_stats["requests"].items()):
        emit("covidkg_service_requests_total", "counter", count,
             {"engine": engine})
    for engine, count in sorted(service_stats["errors"].items()):
        emit("covidkg_service_errors_total", "counter", count,
             {"engine": engine})
    for counter in ("shed", "deadline_exceeded", "collapsed_misses",
                    "negative_hits"):
        emit(f"covidkg_service_{counter}_total", "counter",
             service_stats[counter])
    cache = service_stats["cache"]
    for counter in ("hits", "misses", "evictions", "invalidations"):
        if counter in cache:
            emit(f"covidkg_cache_{counter}_total", "counter",
                 cache[counter])
    emit("covidkg_cache_entries", "gauge", cache["entries"])
    emit("covidkg_admission_pending", "gauge",
         service_stats["admission"]["pending"])
    overall = service_stats["latency"]["overall"]
    for label in ("p50_ms", "p95_ms", "p99_ms"):
        emit("covidkg_service_latency_ms", "gauge", overall.get(label),
             {"quantile": label[:-3]})
    return "\n".join(lines) + "\n"
