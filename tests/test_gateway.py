"""End-to-end tests for the asyncio HTTP gateway.

Every test here talks to a real socket on an ephemeral port via
:class:`BackgroundGateway` + the stdlib :class:`GatewayClient` — no
mocked transports — so keep-alive reuse, backpressure, overload
shedding, and graceful drain are exercised exactly as a deployment
would see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import socket
import struct
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import ReproError
from repro.gateway import (
    ERROR_STATUS,
    BackgroundGateway,
    GatewayClient,
    all_error_classes,
    map_error,
)
from repro.gateway.http import Response, build_response, encode_json
from repro.gateway.routes import (
    _envelope,
    encode_served,
    encode_value,
    serialize_served,
    served_response,
)
from repro.ingest.engine import IngestEngine
from repro.serve.cache import request_key
from repro.serve.service import (
    GatewayConfig,
    QueryService,
    ServeConfig,
    ServedResult,
)
from tests.raw_client import RawGatewayClient

REPO_ROOT = Path(__file__).resolve().parent.parent


def _corpus(seed, count):
    return CorpusGenerator(GeneratorConfig(
        seed=seed, papers_per_week=15, tables_per_paper=(1, 2),
    )).papers(count)


def _page_ids(results):
    return [hit.paper_id for hit in results]


@pytest.fixture(scope="module")
def system():
    kg = CovidKG(CovidKGConfig(num_shards=2))
    kg.ingest(_corpus(53, 24))
    return kg


@pytest.fixture(scope="module")
def gateway(system):
    with QueryService(system, ServeConfig(num_workers=2)) as service:
        with BackgroundGateway(service) as gw:
            yield gw


@pytest.fixture()
def client(gateway):
    with RawGatewayClient("127.0.0.1", gateway.port) as cl:
        yield cl


def _slow_dispatch(started, release, delay):
    def dispatch(query, page=1):
        started.release()
        release.wait(timeout=delay)
        return {"query": query, "page": page}
    return dispatch


class _SlowHarness:
    """A gateway over a deliberately tiny, slow service.

    An ``all_fields`` search signals ``started`` when a worker picks it
    up, then holds the worker until ``release`` is set or ``delay``
    seconds pass.  ``admitted`` signals each request the pool queues.
    """

    def __init__(self, system, *, delay=30.0, num_workers=1,
                 max_queue=8, gateway_config=None):
        self.service = QueryService(system, ServeConfig(
            num_workers=num_workers, max_queue=max_queue,
        ))
        self.started = threading.Semaphore(0)
        self.admitted = threading.Semaphore(0)
        self.release = threading.Event()
        self.service._dispatch["all_fields"] = _slow_dispatch(
            self.started, self.release, delay)
        pool = self.service._pool
        submit = pool.submit

        def counted_submit(*args, **kwargs):
            future = submit(*args, **kwargs)
            self.admitted.release()
            return future

        pool.submit = counted_submit
        self.gw = BackgroundGateway(self.service, gateway_config)

    def __enter__(self):
        self.gw.start()
        return self

    def __exit__(self, *exc_info):
        self.release.set()
        try:
            self.gw.stop()
        finally:
            self.service.close()

    @property
    def port(self):
        return self.gw.port

    def occupy(self, *queries):
        """GET each query on its own connection, in order.

        Returns the ``(thread, box)`` pairs once the first search holds
        the worker and the rest are queued behind it.
        """
        threads = []
        for i, query in enumerate(queries):
            threads.append(_get_in_thread(
                self.port, "/v1/search/all_fields", {"query": query}))
            assert self.admitted.acquire(timeout=10.0)
            if i == 0:
                assert self.started.acquire(timeout=10.0)
        return threads


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


def _get_in_thread(port, path, params=None, timeout=30.0):
    """Run one GET on its own connection in a thread; join for result."""
    box = {}

    def run():
        try:
            with GatewayClient("127.0.0.1", port,
                               timeout=timeout) as cl:
                box["response"] = cl.get(path, params=params)
        except BaseException as exc:  # noqa: BLE001 - surfaced via box
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


# -- routing ---------------------------------------------------------------

class TestRouting:
    def test_healthz(self, client):
        response = client.healthz()
        assert response.status == 200
        payload = response.json()
        assert payload["status"] == "ok"
        # The cluster router feeds on these: data-version counters,
        # ingest replay state, and the admission queue depth.
        assert set(payload["versions"]) == {"store", "kg"}
        assert payload["ingest"]["attached"] is False
        assert payload["admission"] == {"pending": 0}
        assert response.request_id

    def test_head_healthz_has_headers_but_no_body(self, client):
        response = client.request("HEAD", "/v1/healthz")
        assert response.status == 200
        assert int(response.headers["content-length"]) > 0
        assert response.body == b""

    def test_all_fields_matches_direct(self, client, system):
        direct = system.search("vaccine side effects", page=1)
        response = client.search("all_fields",
                                 query="vaccine side effects", page=1)
        assert response.status == 200
        payload = response.json()
        assert payload["engine"] == "all_fields"
        served_ids = [hit["paper_id"] for hit in
                      payload["value"]["results"]]
        assert served_ids == _page_ids(direct)
        assert payload["value"]["total_matches"] == \
            direct.total_matches

    def test_title_abstract_matches_direct(self, client, system):
        direct = system.search_fields(abstract="vaccine")
        response = client.search("title_abstract", abstract="vaccine")
        assert response.status == 200
        served_ids = [hit["paper_id"] for hit in
                      response.json()["value"]["results"]]
        assert served_ids == _page_ids(direct)

    def test_table_matches_direct(self, client, system):
        direct = system.search_tables("dosage")
        response = client.search("table", query="dosage")
        assert response.status == 200
        served_ids = [hit["paper_id"] for hit in
                      response.json()["value"]["results"]]
        assert served_ids == _page_ids(direct)

    def test_kg_matches_direct(self, client, system):
        direct = system.search_graph("side effects", top_k=5)
        response = client.kg_search("side effects", top_k=5)
        assert response.status == 200
        served = response.json()["value"]
        assert [hit["label"] for hit in served] == \
            [hit.node.label for hit in direct]

    def test_repeat_query_is_served_from_cache(self, client):
        cold = client.search("all_fields", query="quarantine policy")
        warm = client.search("all_fields", query="quarantine policy")
        assert cold.status == warm.status == 200
        assert warm.json()["cached"]

    def test_keep_alive_reuses_one_connection(self, gateway):
        with GatewayClient("127.0.0.1", gateway.port) as cl:
            for _ in range(5):
                assert cl.healthz().status == 200
            assert cl.search("all_fields", query="covid").status == 200
            assert cl.connects == 1

    def test_pipelined_requests_answered_in_order(self, client):
        raw = (b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
               b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n")
        client.send_raw_nowait(raw)
        first = client.read_response()
        second = client.read_response()
        assert first.json()["status"] == "ok"
        assert "gateway" in second.json()

    def test_stats_nests_gateway_and_service(self, client):
        client.healthz()
        stats = client.stats()
        assert stats["gateway"]["requests"]["healthz"] >= 1
        assert stats["gateway"]["connections"]["open"] >= 1
        assert "requests" in stats["service"]
        assert "cache" in stats["service"]

    def test_metrics_exposition(self, client):
        client.search("all_fields", query="covid")
        text = client.metrics_text()
        assert "# TYPE covidkg_gateway_connections_open gauge" in text
        assert "covidkg_gateway_requests_total" in text
        assert 'endpoint="search.all_fields"' in text
        assert "covidkg_service_shed_total" in text
        assert "covidkg_admission_pending" in text

    def test_serve_stats_cli_reads_a_live_gateway(self, gateway,
                                                  capsys):
        from repro.cli import main
        rc = main(["serve-stats",
                   "--url", f"http://127.0.0.1:{gateway.port}"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "gateway.requests.healthz" in captured.out
        assert "service.cache" in captured.out


# -- protocol and validation errors ----------------------------------------

class TestProtocolErrors:
    def test_unknown_route_is_404(self, client):
        response = client.get("/v1/nope")
        assert response.status == 404
        error = response.json()["error"]
        assert error["code"] == "not_found"
        assert error["request_id"] == response.request_id

    def test_missing_required_param_is_400(self, client):
        response = client.get("/v1/search/all_fields")
        assert response.status == 400
        assert response.json()["error"]["code"] == "bad_request"

    def test_invalid_page_is_400(self, client):
        response = client.search("all_fields", query="covid",
                                 page="minus one")
        assert response.status == 400

    def test_malformed_request_line_is_400_and_closes(self, client):
        response = client.send_raw(b"NONSENSE\r\n\r\n")
        assert response.status == 400
        assert not response.keep_alive
        assert response.json()["error"]["code"] == "bad_request"

    def test_unsupported_method_is_400(self, client):
        response = client.send_raw(b"BREW /v1/healthz HTTP/1.1\r\n"
                                   b"Host: x\r\n\r\n")
        assert response.status == 400

    def test_oversized_header_is_400(self, client):
        padding = "x" * 20_000  # default max_header_bytes is 16 KiB
        response = client.get("/v1/healthz",
                              headers={"X-Padding": padding})
        assert response.status == 400
        assert not response.keep_alive

    def test_oversized_body_is_413(self, client):
        # Announce a body far past max_body_bytes without sending it:
        # the gateway must answer from the headers alone.
        response = client.send_raw(
            b"POST /v1/healthz HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 1000000\r\n\r\n")
        assert response.status == 413
        assert response.json()["error"]["code"] == "request_too_large"

    def test_bad_timeout_param_is_400(self, client):
        response = client.search("all_fields", query="covid",
                                 timeout_ms=-5)
        assert response.status == 400

    def test_target_urlsplit_refuses_is_400_counted_and_logged(self,
                                                               system):
        """Regression: the gateway dropped the connection with b''."""
        stream = io.StringIO()
        with QueryService(system, ServeConfig(num_workers=1)) as service:
            with contextlib.redirect_stderr(stream):
                gw = BackgroundGateway(service, GatewayConfig(port=0))
            with gw, RawGatewayClient("127.0.0.1", gw.port) as cl:
                response = cl.send_raw(
                    b"GET //[abc/x HTTP/1.1\r\nHost: x\r\n\r\n")
                parse_errors = gw.gateway.metrics.snapshot()[
                    "parse_errors"]
        assert response.status == 400
        assert not response.keep_alive
        error = response.json()["error"]
        assert error["code"] == "bad_request"
        assert error["request_id"] == response.request_id
        assert "//[abc/x" in error["message"]
        assert parse_errors == 1
        logged = [line for line in stream.getvalue().splitlines()
                  if "repro.gateway.access" in line]
        assert len(logged) == 1
        assert f"request_id={response.request_id} " in logged[0]
        assert "endpoint=malformed status=400 " in logged[0]


# -- overload, deadlines, and loop responsiveness --------------------------

class TestOverload:
    def test_saturated_admission_queue_sheds_503(self, system):
        with _SlowHarness(system, num_workers=1,
                          max_queue=1) as harness:
            # slow-0 occupies the worker, slow-1 the queue ...
            threads = harness.occupy("slow 0", "slow 1")
            # ... so this submit is shed synchronously with a 503.
            with GatewayClient("127.0.0.1", harness.port) as cl:
                started = time.monotonic()
                shed = cl.search("all_fields", query="shed me")
                elapsed = time.monotonic() - started
            assert shed.status == 503
            assert shed.json()["error"]["code"] == "service_overloaded"
            assert "retry-after" in shed.headers
            assert elapsed < 0.3, "sheds must be immediate, not hung"
            harness.release.set()
            for thread, box in threads:
                thread.join(timeout=10.0)
                assert box["response"].status == 200

    def test_connection_cap_sheds_loudly(self, system):
        config = GatewayConfig(port=0, max_connections=1)
        with _SlowHarness(system, gateway_config=config) as harness:
            with GatewayClient("127.0.0.1", harness.port) as first:
                assert first.healthz().status == 200  # holds the slot
                with GatewayClient("127.0.0.1",
                                   harness.port) as second:
                    shed = second.healthz()
                assert shed.status == 503
                assert shed.json()["error"]["code"] == \
                    "too_many_connections"
                assert "retry-after" in shed.headers
                assert not shed.keep_alive
            gw_stats = harness.gw.gateway.metrics.snapshot()
            assert gw_stats["connections"]["shed"] == 1

    def test_deadline_lapsed_in_queue_is_504(self, system):
        with _SlowHarness(system, delay=0.5,
                          num_workers=1) as harness:
            [(thread, box)] = harness.occupy("slow occupant")
            # Queued behind a 0.5s request with a 50ms budget: the
            # deadline lapses before a worker ever picks it up.
            with GatewayClient("127.0.0.1", harness.port) as cl:
                late = cl.search("all_fields", query="impatient",
                                 timeout_ms=50)
            assert late.status == 504
            assert late.json()["error"]["code"] == "deadline_exceeded"
            thread.join(timeout=10.0)
            assert box["response"].status == 200

    def test_timeout_header_is_equivalent_to_the_param(self, system):
        with _SlowHarness(system, delay=0.5,
                          num_workers=1) as harness:
            [(thread, box)] = harness.occupy("slow occupant")
            with GatewayClient("127.0.0.1", harness.port) as cl:
                late = cl.get("/v1/search/all_fields",
                              params={"query": "impatient header"},
                              headers={"X-Timeout-Ms": "50"})
            assert late.status == 504
            thread.join(timeout=10.0)
            assert box["response"].status == 200

    def test_slow_fanout_does_not_delay_healthz(self, system):
        """The acceptance criterion: the loop never blocks, so another
        connection's health probe answers while a slow request runs."""
        with _SlowHarness(system, num_workers=1) as harness:
            [(thread, box)] = harness.occupy("slow fanout")
            with GatewayClient("127.0.0.1", harness.port) as probe:
                for _ in range(3):
                    started = time.monotonic()
                    response = probe.healthz()
                    elapsed = time.monotonic() - started
                    assert response.status == 200
                    assert elapsed < 0.25, (
                        f"healthz took {elapsed:.3f}s behind a slow "
                        f"fan-out — the event loop blocked")
            harness.release.set()
            thread.join(timeout=10.0)
            assert box["response"].status == 200


# -- the encoded page: byte identity and entry lifetime --------------------

#: What legitimately differs between a miss and a hit of one page.
_VOLATILE = re.compile(rb'"request_id":"[^"]*","cached":(?:true|false),'
                       rb'"collapsed":false,"seconds":[^,]*,')

_ENVELOPE_KEYS = ["engine", "request_id", "cached", "collapsed", "seconds",
                  "versions", "value"]

KGQL = 'MATCH (v:"Vaccines")-[parent_of*1..2]->(e) RETURN e LIMIT 5'

PAGES = {
    "all_fields": ("/v1/search/all_fields",
                   {"query": "vaccine side effects"}),
    "title_abstract": ("/v1/search/title_abstract",
                       {"abstract": "vaccine", "page": "1"}),
    "table": ("/v1/search/table", {"query": "dosage"}),
    "kg": ("/v1/kg/search", {"query": "side effects", "top_k": "5"}),
    "kg_query": ("/v1/kg/query", {"query": KGQL}),
    "kg_query_nl": ("/v1/kg/query",
                    {"query": "what is under Vaccines", "nl": "1"}),
}


def _masked(body):
    masked, count = _VOLATILE.subn(b"", body, count=1)
    assert count == 1, body[:200]
    return masked


def _wire_slots(service):
    return sum(entry.wire is not None
               for entry in service.cache._entries.values())


@pytest.fixture()
def fresh(system):
    """(service, client) over a cold cache on the shared system."""
    with QueryService(system, ServeConfig(num_workers=2)) as service:
        with BackgroundGateway(service) as gw:
            with GatewayClient("127.0.0.1", gw.port) as cl:
                yield service, cl


class TestEncodedPage:
    @pytest.mark.parametrize("name", sorted(PAGES))
    def test_miss_and_hits_are_byte_identical(self, fresh, name):
        service, cl = fresh
        path, params = PAGES[name]
        bodies = []
        for _ in range(4):  # miss, first hit, second hit, third hit
            response = cl.get(path, params=params)
            assert response.status == 200, response.text
            bodies.append(response.body)
        assert [json.loads(body)["cached"] for body in bodies] == \
            [False, True, True, True]
        miss, first_hit, _, third_hit = bodies
        assert _masked(miss) == _masked(first_hit) == _masked(third_hit)
        for body in bodies:
            payload = json.loads(body)
            # The canonical compact form, however the body was put
            # together (one pass on a miss, spliced on a hit).
            assert json.dumps(payload,
                              separators=(",", ":")).encode() == body
            assert list(payload) == _ENVELOPE_KEYS
        assert _wire_slots(service) == 1

    def test_bytes_attach_on_the_first_hit_not_at_miss_time(self, fresh):
        service, cl = fresh
        path, params = PAGES["all_fields"]
        key = request_key("all_fields", {"query": params["query"],
                                         "page": 1})
        cl.get(path, params=params)
        assert service.cache._entries[key].wire is None  # never hit
        cl.get("/v1/search/all_fields", params={"query": "quarantine"})
        assert _wire_slots(service) == 0
        cl.get(path, params=params)
        entry = service.cache._entries[key]
        assert entry.wire == encode_value(entry.value)
        assert _wire_slots(service) == 1  # ... and only that entry

    def test_in_process_results_ignore_the_attached_bytes(self, system):
        with QueryService(system, ServeConfig(num_workers=2)) as service:
            params = {"query": "vaccine side effects", "page": 1}
            miss = service.query("all_fields", **params)
            bare = service.query("all_fields", **params)
            assert bare.cached and bare.wire is None
            service.attach_wire(bare, params, encode_value(bare.value))
            carrying = service.query("all_fields", **params)
            assert carrying.wire == encode_value(miss.value)
            assert dataclasses.replace(
                carrying, seconds=bare.seconds) == bare
            assert "wire" not in repr(carrying)

    def test_no_stale_bytes_across_commit_and_rollback(self, tmp_path):
        papers = _corpus(53, 40)
        kg = CovidKG(CovidKGConfig(num_shards=2))
        kg.ingest(papers[:24])
        engine = IngestEngine(kg, tmp_path)
        path, params = "/v1/search/all_fields", {"query": "covid"}

        def page(cl, cached):
            response = cl.get(path, params=params)
            assert response.status == 200, response.text
            assert response.json()["cached"] is cached
            return response.body

        try:
            with QueryService(kg, ServeConfig(num_workers=2)) as service:
                service.attach_ingest(engine)
                with BackgroundGateway(service) as gw, \
                        GatewayClient("127.0.0.1", gw.port) as cl:
                    old = page(cl, False)
                    assert _masked(page(cl, True)) == _masked(old)
                    assert _masked(page(cl, True)) == _masked(old)
                    assert cl.ingest(papers[24:]).status == 200
                    fresh_page = page(cl, False)
                    assert json.loads(fresh_page)["value"] != \
                        json.loads(old)["value"]
                    # The next hits serve *that* page, not kept bytes.
                    assert _masked(page(cl, True)) == _masked(fresh_page)
                    assert _masked(page(cl, True)) == _masked(fresh_page)
                    engine.rollback("base")
                    back = page(cl, False)
                    assert json.loads(back)["value"]["results"] == \
                        json.loads(old)["value"]["results"]
                    assert _masked(page(cl, True)) == _masked(back)
                    assert _masked(page(cl, True)) == _masked(back)
                    assert _wire_slots(service) == 1
        finally:
            engine.close()


_SECONDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-7, 1e16, 5e-324, 1.7976931348623157e308,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(engine=st.text(max_size=16), request_id=st.text(max_size=24),
       seconds=_SECONDS,
       versions=st.lists(st.integers(), max_size=4).map(tuple),
       cached=st.booleans(), collapsed=st.booleans(), value=_JSON_VALUES)
def test_envelope_template_equals_json_dumps(engine, request_id, seconds,
                                             versions, cached, collapsed,
                                             value):
    served = ServedResult(engine=engine, value=value, cached=cached,
                          seconds=seconds, versions=versions,
                          collapsed=collapsed)
    encoded = encode_served(served, request_id, encode_value(value))
    assert encoded == encode_json(serialize_served(served, request_id))
    assert encoded.startswith(
        encode_json(_envelope(served, request_id))[:-1] + b',"value":')


@settings(max_examples=100, deadline=None)
@given(request_id=st.text(max_size=24), seconds=_SECONDS,
       versions=st.lists(st.integers(), max_size=4).map(tuple),
       cached=st.booleans(), value=_JSON_VALUES,
       keep_alive=st.booleans(), head_only=st.booleans())
def test_served_response_equals_build_response(request_id, seconds,
                                               versions, cached, value,
                                               keep_alive, head_only):
    served = ServedResult(engine="all_fields", value=value, cached=cached,
                          seconds=seconds, versions=versions)
    served.wire = encode_value(value)
    request_id = request_id.encode("latin-1", "replace").decode("latin-1")
    expected = build_response(
        Response(body=encode_served(served, request_id, served.wire)),
        request_id=request_id, keep_alive=keep_alive, head_only=head_only)
    assert served_response(served, request_id, keep_alive=keep_alive,
                           head_only=head_only) == expected


def test_a_hit_is_admitted_as_its_served_result(system):
    """The hit lane's claim result reaches the gateway unwrapped."""
    with QueryService(system, ServeConfig(num_workers=1)) as service:
        params = {"query": "vaccine side effects", "page": 1}
        miss = service.admit("all_fields", **params)
        assert isinstance(miss, Future)
        miss.result(timeout=30.0)
        hit = service.admit("all_fields", **params)
        assert isinstance(hit, ServedResult) and hit.cached
        assert hit.value is miss.result().value
        # submit() still hands every caller a Future, hits included.
        wrapped = service.submit("all_fields", **params)
        assert isinstance(wrapped, Future) and wrapped.result().cached
        assert service.stats()["requests"]["all_fields"] == 3


# -- the hit lane's memo: a target parsed once ------------------------------

_TARGET = "/v1/search/all_fields?query=vaccine+side+effects"

#: What differs between two answers of one page besides its bytes.
_HIT_VOLATILE = re.compile(
    rb"X-Request-Id: [^\r]*\r\n|Content-Length: [^\r]*\r\n"
    rb'|"request_id":"[^"]*"|"seconds":[^,]*,')


def _exchange(port, raw, head_only=False):
    """One request on its own connection; the response's raw bytes."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10.0) as sock:
        sock.sendall(raw)
        data = b""
        while b"\r\n\r\n" not in data:
            data += sock.recv(65536)
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        while not head_only and len(body) < length:
            body += sock.recv(65536)
    assert len(body) == (0 if head_only else length)
    return data


def _hit_request(method="GET", target=_TARGET, extra=""):
    return (f"{method} {target} HTTP/1.1\r\nHost: x\r\n{extra}\r\n"
            ).encode()


@pytest.fixture()
def warm(system):
    """A service whose L1 holds ``_TARGET``'s page."""
    with QueryService(system, ServeConfig(num_workers=2)) as service:
        service.query("all_fields", query="vaccine side effects", page=1)
        yield service


class TestHitMemo:
    @pytest.mark.parametrize("method, extra", [
        ("GET", ""), ("HEAD", ""), ("GET", "Connection: close\r\n")])
    def test_a_memo_served_answer_equals_a_fresh_gateways(
            self, warm, method, extra):
        request = _hit_request(method, extra=extra)
        head_only = method == "HEAD"
        with BackgroundGateway(warm) as gw:
            first = _exchange(gw.port, _hit_request())
            assert _TARGET in gw.gateway._memo
            memo_served = _exchange(gw.port, request, head_only)
        with BackgroundGateway(warm) as gw:
            fresh = _exchange(gw.port, request, head_only)
            assert _TARGET in gw.gateway._memo
        assert b'"cached":true' in first
        assert _HIT_VOLATILE.sub(b"", memo_served) == \
            _HIT_VOLATILE.sub(b"", fresh)
        connection = b"close" if extra else b"keep-alive"
        assert b"Connection: " + connection + b"\r\n" in memo_served

    def test_case_and_space_variants_share_an_entry_not_a_row(self,
                                                              system):
        spaced = "/v1/search/all_fields?query=%20COVID%20"
        plain = "/v1/search/all_fields?query=covid"
        with QueryService(system, ServeConfig(num_workers=2)) as service:
            with BackgroundGateway(service) as gw, \
                    GatewayClient("127.0.0.1", gw.port) as cl:
                answers = [cl.request("GET", target)
                           for target in (plain, plain, spaced, spaced)]
                memo = gw.gateway._memo
                assert [answer.json()["cached"] for answer in answers] \
                    == [False, True, True, True]
                assert len(service.cache) == 1
                assert list(memo) == [plain, spaced]
                assert memo[plain].key == memo[spaced].key
                assert memo[plain].params == {"query": "covid", "page": 1}
                assert memo[spaced].params == {"query": " COVID ",
                                               "page": 1}

    def test_a_bad_timeout_header_on_a_memoized_target_is_400(self,
                                                              warm):
        with BackgroundGateway(warm) as gw, \
                RawGatewayClient("127.0.0.1", gw.port) as cl:
            assert cl.send_raw(_hit_request()).json()["cached"]
            assert _TARGET in gw.gateway._memo
            for header in ("soon", "0", "-5"):
                bad = cl.send_raw(_hit_request(
                    extra=f"X-Timeout-Ms: {header}\r\n"))
                assert bad.status == 400, header
                assert bad.json()["error"]["code"] == "bad_request"
                assert "timeout_ms" in bad.json()["error"]["message"]
            good = cl.send_raw(_hit_request(extra="X-Timeout-Ms: 500\r\n"))
            assert good.status == 200 and good.json()["cached"]

    def test_a_bad_page_is_never_memoized(self, warm):
        target = "/v1/search/all_fields?query=vaccine+side+effects&page=0"
        with BackgroundGateway(warm) as gw, \
                RawGatewayClient("127.0.0.1", gw.port) as cl:
            for _ in range(3):
                response = cl.send_raw(_hit_request(target=target))
                assert response.status == 400
                assert "'page'" in response.json()["error"]["message"]
            assert gw.gateway._memo == {}

    def test_the_memo_holds_at_most_the_l1s_max_entries(self, system):
        with QueryService(system, ServeConfig(num_workers=2)) as service:
            service.cache.max_entries = 4
            with BackgroundGateway(service) as gw, \
                    GatewayClient("127.0.0.1", gw.port) as cl:
                memo = gw.gateway._memo
                targets = [f"/v1/search/all_fields?query=term+{n}"
                           for n in range(10)]
                for target in targets:
                    for _ in range(3):  # miss, first hit, memo hit
                        assert cl.request("GET", target).status == 200
                        assert len(memo) <= 4
                assert list(memo) == targets[-4:]

    def test_every_counter_counts_each_hit_once(self, system):
        hits = 6
        with QueryService(system, ServeConfig(num_workers=2)) as service:
            with BackgroundGateway(service) as gw, \
                    GatewayClient("127.0.0.1", gw.port) as cl:
                for _ in range(hits):  # one miss, then hits
                    assert cl.request("GET", _TARGET).status == 200
                stats = cl.get("/v1/stats").json()
                metrics = cl.get("/v1/metrics").text
        gateway, service_stats = stats["gateway"], stats["service"]
        assert service_stats["requests"] == {"all_fields": hits}
        assert service_stats["cache"]["hits"] == hits - 1
        assert gateway["requests"] == {"search.all_fields": hits,
                                       "stats": 1}
        assert gateway["responses"] == {"200": hits}
        assert gateway["requests_inflight"] == 1  # the stats request
        latencies = [gateway["latency"],
                     *service_stats["latency"].values()]
        assert len(latencies) == 3  # gateway, overall, all_fields
        assert [latency["count"] for latency in latencies] == [hits] * 3
        for line in (
                f'covidkg_service_requests_total{{engine="all_fields"}} '
                f'{hits}',
                f'covidkg_gateway_requests_total'
                f'{{endpoint="search.all_fields"}} {hits}',
                # ... and the stats answer
                f'covidkg_gateway_responses_total{{status="200"}} '
                f'{hits + 1}',
                f"covidkg_cache_hits_total {hits - 1}"):
            assert line in metrics.splitlines(), line


# -- the inline lane: order, backpressure, accounting ----------------------

def _raw(target):
    return f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()


class TestInlineLane:
    def test_ready_answers_queue_behind_a_slow_miss(self, system):
        with _SlowHarness(system, delay=0.2, num_workers=1) as harness:
            with RawGatewayClient("127.0.0.1", harness.port) as cl:
                warm = cl.search("all_fields", query="warm")
                assert warm.status == 200
                started = time.monotonic()
                cl.send_raw_nowait(
                    _raw("/v1/search/all_fields?query=slow")
                    + _raw("/v1/search/all_fields?query=warm")
                    + _raw("/v1/healthz")
                    + _raw("/v1/search/all_fields?query=warm"))
                replies = [cl.read_response() for _ in range(4)]
                elapsed = time.monotonic() - started
            assert [reply.status for reply in replies] == [200] * 4
            slow, hit, health, hit_again = (
                reply.json() for reply in replies)
            assert slow["value"]["query"] == "slow" and not slow["cached"]
            assert elapsed >= 0.2  # nothing overtook the miss
            assert health["status"] == "ok"
            for payload, reply in ((hit, replies[1]),
                                   (hit_again, replies[3])):
                assert payload["cached"]
                assert payload["value"] == warm.json()["value"]
                assert _masked(reply.body) == _masked(warm.body)

    def test_a_pipelined_burst_of_hits_keeps_its_order(self, client):
        queries = [f"burst {i % 3}" for i in range(40)]
        for query in queries[:3]:
            assert client.search("all_fields", query=query).status == 200
        client.send_raw_nowait(b"".join(
            _raw(f"/v1/search/all_fields?query=burst+{query[-1]}")
            for query in queries))
        for query in queries:
            payload = client.read_response().json()
            assert payload["cached"]
            assert payload["value"]["query"] == query

    def test_a_connection_holds_one_request_at_a_time(self, system):
        with _SlowHarness(system, num_workers=1) as harness:
            with RawGatewayClient("127.0.0.1", harness.port) as cl:
                cl.send_raw_nowait(
                    _raw("/v1/search/all_fields?query=slow")
                    + _raw("/v1/healthz") * 8)
                # While the miss computes, the eight requests behind it
                # stay unread in the socket.
                assert harness.started.acquire(timeout=10.0)
                metrics = harness.gw.gateway.metrics
                assert metrics.inflight == 1
                assert "healthz" not in metrics.snapshot()["requests"]
                harness.release.set()
                replies = [cl.read_response() for _ in range(9)]
            assert [reply.status for reply in replies] == [200] * 9
            assert replies[0].json()["value"]["query"] == "slow"
            assert all(reply.json()["status"] == "ok"
                       for reply in replies[1:])
            # (accounted just after the last byte went out)
            assert _wait_for(lambda: metrics.inflight == 0)

    def test_client_gone_mid_response_is_499_and_drain_finishes(
            self, system):
        service = QueryService(system, ServeConfig(num_workers=2))
        gw = BackgroundGateway(service).start()
        try:
            target = "/v1/search/all_fields?query=vaccine+side+effects"
            with GatewayClient("127.0.0.1", gw.port) as cl:
                page = cl.request("GET", target)
                assert page.status == 200
            # Far more response bytes than the socket buffers hold, and
            # a client that never reads: the inline lane parks in
            # drain() mid-burst, then the reset arrives.
            burst = 16 * 1024 * 1024 // len(page.body)
            sock = socket.create_connection(("127.0.0.1", gw.port),
                                            timeout=10.0)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.sendall(_raw(target) * burst)
            time.sleep(0.3)
            sock.close()  # RST
            metrics = gw.gateway.metrics
            _wait_for(lambda: not metrics.inflight and
                      "499" in metrics.snapshot()["responses"],
                      timeout=10.0)
            snapshot = metrics.snapshot()
            assert snapshot["responses"].get("499", 0) >= 1
            assert snapshot["requests_inflight"] == 0
            started = time.monotonic()
            gw.stop()
            assert time.monotonic() - started < 2.0, \
                "drain waited on a request nobody will ever finish"
        finally:
            gw.stop()
            service.close()

    def test_replayed_failure_answered_inline_keeps_its_shape(self, fresh):
        service, cl = fresh
        params = {"query": 'MATCH (v:"Vaccines" RETURN v'}  # unbalanced
        computed = cl.get("/v1/kg/query", params=params)
        replayed = cl.get("/v1/kg/query", params=params)
        assert service.stats()["negative_hits"] == 1
        assert computed.status == replayed.status == 400
        first, second = computed.json()["error"], replayed.json()["error"]
        assert second["request_id"] == replayed.request_id
        assert second["request_id"] != first["request_id"]
        assert (second["code"], second["message"]) == \
            (first["code"], first["message"])
        assert replayed.keep_alive

    def test_shed_answered_inline_keeps_retry_after(self, system):
        with _SlowHarness(system, num_workers=1,
                          max_queue=1) as harness:
            # one on the worker, one in the queue
            threads = harness.occupy("slow 0", "slow 1")
            with RawGatewayClient("127.0.0.1", harness.port) as cl:
                cl.send_raw_nowait(
                    _raw("/v1/search/all_fields?query=shed+me")
                    + _raw("/v1/healthz"))
                shed, health = cl.read_response(), cl.read_response()
            assert shed.status == 503
            error = shed.json()["error"]
            assert error["code"] == "service_overloaded"
            assert error["request_id"] == shed.request_id
            assert shed.headers["retry-after"] == "1"
            assert shed.keep_alive and health.status == 200
            harness.release.set()
            for thread, box in threads:
                thread.join(timeout=10.0)
                assert box["response"].status == 200


def _error_sans_request_id(response):
    error = dict(response.json()["error"])
    assert error.pop("request_id") == response.request_id
    return response.status, error


class TestRepeatedBadRequest:
    """A repeated bad request fails the same way every time: the first
    is computed, the repeat replays the negative cache's answer (kept
    by EXPERIMENTS.md "Trial: the idle parts")."""

    def test_malformed_kgql_twice(self, fresh):
        service, cl = fresh
        answers = [cl.get("/v1/kg/query", params={"query": "MATCH ("})
                   for _ in range(2)]
        first, second = (_error_sans_request_id(a) for a in answers)
        assert first == second
        assert first[0] == 400 and first[1]["code"] == "kgql_syntax"
        stats = service.stats()
        assert stats["errors"]["kg_query"] == 1  # computed once ...
        assert stats["negative_hits"] == 1       # ... replayed once
        metrics = cl.get("/v1/metrics").text
        assert 'covidkg_service_errors_total{engine="kg_query"} 1' \
            in metrics
        assert "covidkg_service_negative_hits_total 1" in metrics


# -- the per-connection idle watchdog --------------------------------------

class TestIdleTimeout:
    @pytest.fixture()
    def impatient(self, system):
        config = GatewayConfig(port=0, idle_timeout_seconds=0.2)
        with _SlowHarness(system, delay=0.5, num_workers=1,
                          gateway_config=config) as harness:
            yield harness

    @staticmethod
    def _closed_quietly(sock, within=2.0):
        """The peer closed without sending another byte."""
        sock.settimeout(within)
        started = time.monotonic()
        assert sock.recv(65536) == b""
        return time.monotonic() - started

    def test_idle_keep_alive_connection_is_closed_quietly(self,
                                                          impatient):
        with socket.create_connection(("127.0.0.1", impatient.port),
                                      timeout=5.0) as sock:
            sock.sendall(_raw("/v1/healthz"))
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            assert 0.1 <= self._closed_quietly(sock) < 1.5

    def test_half_sent_head_is_closed_without_a_400(self, impatient):
        with socket.create_connection(("127.0.0.1", impatient.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"GET /v1/healthz HTT")
            self._closed_quietly(sock)
        snapshot = impatient.gw.gateway.metrics.snapshot()
        assert snapshot["parse_errors"] == 0
        assert snapshot["requests"].get("malformed", 0) == 0

    def test_a_connection_that_keeps_asking_is_never_closed(self,
                                                            impatient):
        with GatewayClient("127.0.0.1", impatient.port) as cl:
            for _ in range(10):  # 1 s of traffic, 5 idle timeouts long
                assert cl.request("GET", "/v1/healthz",
                                  retry_on_stale=False).status == 200
                time.sleep(0.1)
            assert cl.connects == 1

    def test_an_outstanding_answer_outlives_the_idle_timeout(self,
                                                             impatient):
        with socket.create_connection(("127.0.0.1", impatient.port),
                                      timeout=5.0) as sock:
            sock.sendall(_raw("/v1/search/all_fields?query=slow"))
            reply = sock.recv(65536)  # 0.5 s of work, 0.2 s idle limit
            assert reply.startswith(b"HTTP/1.1 200")
            assert b'"query":"slow"' in reply
            self._closed_quietly(sock)


# -- graceful drain --------------------------------------------------------

class TestDrain:
    def test_drain_finishes_inflight_then_refuses_new_work(self, system):
        with _SlowHarness(system, delay=0.4,
                          num_workers=1) as harness:
            port = harness.port
            [(thread, box)] = harness.occupy("mid drain")
            harness.gw.stop()  # drain: must deliver the response first
            thread.join(timeout=10.0)
            assert "error" not in box, box.get("error")
            response = box["response"]
            assert response.status == 200
            assert not response.keep_alive, \
                "a draining gateway must not promise keep-alive"
        with pytest.raises(OSError):
            with GatewayClient("127.0.0.1", port) as cl:
                cl.request("GET", "/v1/healthz", retry_on_stale=False)


# -- client reconnect across a replica restart -----------------------------

class TestClientReconnect:
    def test_stale_get_rides_through_a_replica_restart(self, system):
        """A keep-alive socket dying because the gateway restarted must
        surface as one transparently retried request, not a raw
        ConnectionError — the cluster failover contract."""
        first = QueryService(system, ServeConfig(num_workers=1))
        gw = BackgroundGateway(first).start()
        port = gw.port
        with GatewayClient("127.0.0.1", port,
                           reconnect_wait=5.0) as client:
            assert client.healthz().status == 200  # socket now warm
            gw.stop()
            first.close()

            def restart():
                time.sleep(0.3)  # the restart window the retry rides
                service = QueryService(system,
                                       ServeConfig(num_workers=1))
                replacement = BackgroundGateway(
                    service, GatewayConfig(port=port)).start()
                box["gw"] = replacement
                box["service"] = service

            box = {}
            thread = threading.Thread(target=restart)
            thread.start()
            try:
                response = client.healthz()
                assert response.status == 200
                assert client.connects >= 2  # really reconnected
            finally:
                thread.join(timeout=10.0)
                if "gw" in box:
                    box["gw"].stop()
                    box["service"].close()

    def test_stale_post_is_never_replayed(self, system):
        """POST must surface the transport error: the dead server may
        have committed the batch before the socket broke, and a silent
        replay would commit it twice."""
        first = QueryService(system, ServeConfig(num_workers=1))
        gw = BackgroundGateway(first).start()
        port = gw.port
        with GatewayClient("127.0.0.1", port,
                           reconnect_wait=5.0) as client:
            assert client.healthz().status == 200  # socket now warm
            gw.stop()
            first.close()
            # A fresh replacement is listening on the same port: a
            # replayed POST *would* succeed — which is exactly why the
            # client must refuse to replay it.
            service = QueryService(system, ServeConfig(num_workers=1))
            replacement = BackgroundGateway(
                service, GatewayConfig(port=port)).start()
            try:
                with pytest.raises(OSError):
                    client.ingest([])
                # The same client still works for idempotent requests.
                assert client.healthz().status == 200
            finally:
                replacement.stop()
                service.close()

    def test_fresh_connection_failure_raises_immediately(self):
        probe = __import__("socket").socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = GatewayClient("127.0.0.1", dead_port,
                               reconnect_wait=5.0)
        started = time.monotonic()
        with pytest.raises(OSError):
            client.get("/v1/healthz")
        # No retry loop on a fresh connection: nothing was in flight.
        assert time.monotonic() - started < 2.0


# -- error mapping ---------------------------------------------------------

class TestErrorMapping:
    def test_mapping_is_exhaustive(self):
        """Every repro error class has an explicit HTTP mapping, so a
        newly added error type can never fall through to a bare 500."""
        missing = [cls.__name__ for cls in all_error_classes()
                   if cls not in ERROR_STATUS]
        assert missing == [], (
            f"add explicit ERROR_STATUS entries for: {missing}")

    def test_subclasses_inherit_via_mro(self):
        class FlakyShard(ReproError):
            pass

        assert map_error(FlakyShard("boom")) == \
            ERROR_STATUS[ReproError]

    def test_unknown_exceptions_default_to_internal(self):
        assert map_error(ValueError("nope")) == (500, "internal")

    def test_statuses_are_plausible_http(self):
        for cls, (status, code) in ERROR_STATUS.items():
            assert 400 <= status <= 599, (cls, status)
            assert code and code == code.lower(), (cls, code)

    def test_every_status_has_a_reason_phrase(self):
        """A mapped error, or a status the gateway and router build
        themselves (no route, wrong method, oversized body, shed), never
        goes out as ``HTTP/1.1 <status> Unknown``."""
        from repro.gateway.http import REASON_PHRASES

        built = {400, 404, 405, 413, 503}
        mapped = {status for status, _code in ERROR_STATUS.values()}
        assert sorted((mapped | built) - set(REASON_PHRASES)) == []


# -- static analysis -------------------------------------------------------

def test_gateway_package_has_no_blocking_async_findings():
    """REP206 (blocking call in ``async def``) over the gateway code:
    the subsystem that motivated the rule must itself be clean."""
    from repro.analysis.engine import analyze_paths
    findings = analyze_paths(
        [REPO_ROOT / "src" / "repro" / "gateway"], root=REPO_ROOT,
        project_rules=()).findings
    assert findings == [], "\n".join(str(f) for f in findings)
