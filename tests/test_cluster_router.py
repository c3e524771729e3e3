"""The consistent-hash router over real in-process replica gateways.

Each "replica" is an independent system + QueryService behind a
:class:`BackgroundGateway` on its own ephemeral port; the router runs
in front of them exactly as ``repro-covidkg cluster`` wires it (minus
the subprocess boundary, which ``test_cluster_invalidation`` covers).
"""

from __future__ import annotations

import socket
import string
import threading
import time
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.system import CovidKG, CovidKGConfig
from repro.cluster.router import ReplicaSpec, Router, RouterConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.gateway import BackgroundGateway, GatewayClient
from repro.gateway.client import ClientResponse
from repro.gateway.http import (
    Response,
    build_response,
    error_payload,
    parse_request_head,
)
from repro.serve.service import QueryService, ServeConfig
from tests.raw_client import RawGatewayClient

SEED = 41
BASE_PAPERS = 24


def _corpus(count, start=0):
    papers = CorpusGenerator(GeneratorConfig(
        seed=SEED, papers_per_week=15, tables_per_paper=(1, 2),
    )).papers(start + count)
    return papers[start:]


def _page_ids(payload):
    return [hit["paper_id"] for hit in payload["value"]["results"]]


def _wait_until(predicate, timeout=8.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class _Replica:
    """One in-process replica: its own system, service, and gateway."""

    def __init__(self, replica_id):
        self.replica_id = replica_id
        self.system = CovidKG(CovidKGConfig(num_shards=2))
        self.system.ingest(_corpus(BASE_PAPERS))
        self.service = QueryService(self.system,
                                    ServeConfig(num_workers=2))
        self.gateway = BackgroundGateway(self.service)

    def start(self):
        self.gateway.start()
        return self

    def spec(self):
        return ReplicaSpec(self.replica_id, "127.0.0.1",
                           self.gateway.port)

    def stop(self):
        try:
            self.gateway.stop()
        finally:
            self.service.close()


@pytest.fixture()
def cluster():
    replicas = [_Replica(f"r{i}").start() for i in range(3)]
    router = Router([replica.spec() for replica in replicas],
                    RouterConfig(probe_interval=0.1,
                                 fail_threshold=2)).start()
    try:
        yield router, {replica.replica_id: replica
                       for replica in replicas}
    finally:
        router.stop()
        for replica in replicas:
            replica.stop()


@pytest.fixture()
def client(cluster):
    router, _ = cluster
    with GatewayClient("127.0.0.1", router.port) as cl:
        yield cl


#: Headers that name the hop or the process, not the answer.
_PER_HOP = {"connection", "x-request-id", "x-replica",
            "x-replica-request-id"}


def _end_to_end(response):
    return {name: value for name, value in response.headers.items()
            if name not in _PER_HOP}


def _assert_router_error_shape(response, code):
    """``{"error": {"code", "message", "request_id"}}``, one id."""
    error = response.json()["error"]
    assert set(error) == {"code", "message", "request_id"}
    assert error["code"] == code and error["message"]
    assert error["request_id"] == response.request_id
    assert response.request_id.startswith("router-")


def _states(router):
    return {state["replica_id"]: state
            for state in router.cluster_snapshot()["replicas"]}


class TestRouting:
    def test_routed_answer_matches_direct(self, cluster, client):
        _, replicas = cluster
        response = client.search("all_fields", query="vaccine")
        assert response.status == 200
        direct = replicas["r0"].system.search("vaccine", page=1)
        assert _page_ids(response.json()) == \
            [hit.paper_id for hit in direct]

    def test_routed_content_type_matches_direct(self, cluster, client):
        """Regression: the router relabelled replica JSON as text/plain."""
        _, replicas = cluster
        for path, params in [
            ("/v1/search/all_fields", {"query": "vaccine"}),
            ("/v1/metrics", None),
        ]:
            routed = client.get(path, params=params)
            owner = replicas[routed.headers["x-replica"]]
            with GatewayClient("127.0.0.1", owner.gateway.port) as direct:
                answer = direct.get(path, params=params)
            assert routed.status == answer.status == 200
            assert routed.headers["content-type"] == \
                answer.headers["content-type"], path
        assert client.search("all_fields", query="vaccine").headers[
            "content-type"] == "application/json"

    def test_affinity_same_request_same_replica(self, cluster, client):
        owners = set()
        for _ in range(5):
            response = client.search("all_fields", query="antibody")
            assert response.status == 200
            owners.add(response.headers["x-replica"])
        assert len(owners) == 1
        # ... and repeats are served from that replica's warm L1.
        assert client.search("all_fields",
                             query="antibody").json()["cached"]

    def test_query_param_order_does_not_change_owner(self, cluster,
                                                     client):
        first = client.get("/v1/search/all_fields",
                           params={"query": "spike", "page": "1"})
        second = client.get("/v1/search/all_fields",
                            params={"page": "1", "query": "spike"})
        assert first.headers["x-replica"] == \
            second.headers["x-replica"]

    def test_different_requests_spread_over_replicas(self, cluster,
                                                     client):
        owners = {
            client.search("all_fields",
                          query=f"term{i}").headers["x-replica"]
            for i in range(30)
        }
        assert len(owners) > 1

    def test_router_healthz_and_cluster_snapshot(self, cluster, client):
        router, _ = cluster
        health = client.healthz()
        assert health.status == 200
        assert health.json()["role"] == "router"
        assert health.json()["replicas"] == 3
        snapshot = client.get("/v1/cluster").json()
        assert snapshot["in_ring"] == 3
        assert [s["replica_id"] for s in snapshot["replicas"]] == \
            ["r0", "r1", "r2"]
        # Probes populate per-replica version counters.
        assert _wait_until(lambda: all(
            state["versions"] is not None
            for state in _states(router).values()))

    def test_errors_forwarded_verbatim(self, client):
        response = client.search("all_fields")  # missing query
        assert response.status == 400
        assert response.json()["error"]["code"] == "bad_request"

    def test_malformed_request_is_router_400(self, cluster):
        router, _ = cluster
        with socket.create_connection(("127.0.0.1", router.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 400")
        head, _, body = reply.partition(b"\r\n\r\n")
        headers = dict(line.lower().split(": ", 1) for line in
                       head.decode("latin-1").split("\r\n")[1:])
        _assert_router_error_shape(
            ClientResponse(400, "Bad Request", headers, body),
            "bad_request")

    def test_chunked_request_is_router_400_with_request_id(self, client):
        response = client.get("/v1/healthz",
                              headers={"Transfer-Encoding": "chunked"})
        assert response.status == 400
        _assert_router_error_shape(response, "bad_request")

    def test_target_urlsplit_refuses_is_router_400(self, cluster, client):
        """Regression: the connection thread died and the client got b''."""
        router, _ = cluster
        with RawGatewayClient("127.0.0.1", router.port) as raw:
            response = raw.send_raw(
                b"GET //[abc/x HTTP/1.1\r\nHost: x\r\n\r\n")
        assert response.status == 400
        assert not response.keep_alive
        _assert_router_error_shape(response, "bad_request")
        assert "//[abc/x" in response.json()["error"]["message"]
        assert client.healthz().status == 200


#: Identifier parameter names, as every client in this repo sends them.
_NAMES = st.builds(
    str.__add__, st.sampled_from(string.ascii_letters + "_"),
    st.text(string.ascii_letters + string.digits + "_", max_size=11))
_HEX = st.text("0123456789abcdef", min_size=6, max_size=6)
_VALUES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(["/v1/search/all_fields", "/v1/kg/query",
                             "/v1/search/title_abstract", "/x"]),
       params=st.dictionaries(_NAMES, _VALUES, max_size=6))
def test_ring_key_is_the_sorted_urlencode_of_the_params(path, params):
    """The raw-pair key equals the decode-and-re-encode key it replaced."""
    target = f"{path}?{urlencode(params)}"
    request = parse_request_head(
        f"GET {target} HTTP/1.1\r\n\r\n".encode("latin-1"))
    reference = f"{path}?{urlencode(sorted(params.items()))}"
    assert Router.routing_key(request) == reference.encode("utf-8")


def test_ring_key_raw_pair_rules():
    def key(target):
        return Router.routing_key(parse_request_head(
            f"GET {target} HTTP/1.1\r\n\r\n".encode("latin-1")))

    assert key("/p") == key("/p?") == b"/p?"
    assert key("/p?b=2&a=1") == key("/p?a=1&b=2") == b"/p?a=1&b=2"
    # The last value of a repeated name wins; empty pairs are skipped;
    # a bare name is an empty value.
    assert key("/p?a=1&b=2&a=3") == b"/p?a=3&b=2"
    assert key("/p?&a=1&&b") == b"/p?a=1&b="
    # Sorted by name, not by the joined text ("a1=" < "a=" bytewise).
    assert key("/p?a1=x&a=y") == b"/p?a=y&a1=x"


def _reference_relay(request, request_id, upstream, replica_id, *extra):
    """The relay before it spliced head lines: parse, title-case, rebuild."""
    lines = [f"HTTP/1.1 {upstream.status} {upstream.reason}"]
    for name, value in upstream.headers.items():
        if name not in ("connection", "x-request-id"):
            lines.append(f"{name.title()}: {value}")
    lines += (
        f"X-Request-Id: {request_id}",
        f"X-Replica-Request-Id: {upstream.request_id}",
        f"X-Replica: {replica_id}",
        *extra,
        "Connection: keep-alive" if request.keep_alive
        else "Connection: close",
    )
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") \
        + upstream.body


def _replica_answer(kind, body):
    """A replica gateway's ``Response`` for one kind of routed answer."""
    if kind == "not_found":
        return error_payload(404, "not_found", "no route", "r-1")
    if kind == "method_not_allowed":
        response = error_payload(405, "method_not_allowed",
                                 "ingest requires POST", "r-1")
        response.headers["Allow"] = "POST"
        return response
    if kind == "shed":
        response = error_payload(503, "service_overloaded", "shed", "r-1")
        response.headers["Retry-After"] = "1"
        return response
    return Response(body=body)  # a hit's, a miss's or an ingest's page


def _parsed(raw, head_only):
    """What the router's backend client reads off ``raw``."""
    client = GatewayClient("127.0.0.1", 9)
    client._buffer = raw  # the whole answer is buffered: no socket read
    return client._read_response(head_only=head_only)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["hit", "miss", "not_found", "shed",
                             "ingest", "method_not_allowed"]),
       body=st.binary(max_size=64),
       replica_request_id=_HEX.map("3215-{}".format),
       router_request_id=_HEX.map("router-{}".format),
       replica_id=st.sampled_from(["r0", "r1", "r12"]),
       replica_keep_alive=st.booleans(),
       client_keep_alive=st.booleans(),
       head_only=st.booleans())
def test_spliced_relay_matches_the_parse_and_rebuild_relay(
        kind, body, replica_request_id, router_request_id, replica_id,
        replica_keep_alive, client_keep_alive, head_only):
    """Same header lines, same order, same bytes as the old relay."""
    response = _replica_answer(kind, body)
    extra = ("X-Cluster-Write-Replicas: 3",) if kind == "ingest" else ()
    raw = build_response(response, request_id=replica_request_id,
                         keep_alive=replica_keep_alive,
                         head_only=head_only)
    method = "HEAD" if head_only else "GET"
    connection = "" if client_keep_alive else "Connection: close\r\n"
    request = parse_request_head(
        f"{method} /v1/search/all_fields?query=x HTTP/1.1\r\n"
        f"{connection}\r\n".encode("latin-1"))
    relayed = Router._relay(request, router_request_id,
                            _parsed(raw, head_only), replica_id, *extra)
    expected = _reference_relay(request, router_request_id,
                                _parsed(raw, head_only), replica_id,
                                *extra)
    assert relayed == expected


class TestRelay:
    """The router passes a replica's answer on as it arrived."""

    @staticmethod
    def _direct(replicas, routed, method, path, params=None):
        owner = replicas[routed.headers["x-replica"]]
        with GatewayClient("127.0.0.1", owner.gateway.port) as direct:
            return direct.request(method, path, params=params)

    def test_routed_head_keeps_the_gets_length(self, cluster, client):
        _, replicas = cluster
        path, params = "/v1/search/all_fields", {"query": "vaccine"}
        page = client.get(path, params=params)
        routed = client.request("HEAD", path, params=params)
        direct = self._direct(replicas, routed, "HEAD", path, params)
        assert routed.status == direct.status == 200
        assert routed.body == direct.body == b""
        assert routed.headers["content-type"] == \
            direct.headers["content-type"] == "application/json"
        # The envelope's ``seconds`` is a float of no fixed width; the
        # page around it is thousands of bytes.
        lengths = [int(response.headers["content-length"])
                   for response in (routed, direct, page)]
        assert min(lengths) > 1000
        assert max(lengths) - min(lengths) <= 24, lengths
        # HEAD left no stray body behind: the connection still frames.
        again = client.get(path, params=params)
        assert again.status == 200 and again.json()["cached"]
        assert client.connects == 1

    def test_routed_head_length_is_exact_when_the_body_is(self, cluster,
                                                          client):
        _, replicas = cluster
        routed = client.request("HEAD", "/v1/search/all_fields")
        direct = self._direct(replicas, routed, "HEAD",
                              "/v1/search/all_fields")
        assert routed.status == direct.status == 400
        assert int(routed.headers["content-length"]) > 0
        assert _end_to_end(routed) == _end_to_end(direct)

    @pytest.mark.parametrize("method, path, params, status", [
        ("GET", "/v1/search/all_fields", {"query": "vaccine"}, 200),
        ("GET", "/v1/kg/search", {"query": "side effects"}, 200),
        ("GET", "/v1/search/all_fields", None, 400),
        ("GET", "/v1/nope", None, 404),
        ("GET", "/v1/ingest", None, 405),
        ("HEAD", "/v1/ingest", None, 405),
    ])
    def test_routed_headers_and_body_match_direct(
            self, cluster, client, method, path, params, status):
        _, replicas = cluster
        client.request(method, path, params=params)  # 200s: now cached
        routed = client.request(method, path, params=params)
        direct = self._direct(replicas, routed, method, path, params)
        assert routed.status == direct.status == status
        expected, relayed = _end_to_end(direct), _end_to_end(routed)
        if status == 200:
            # Two hits of one page differ in request_id and seconds.
            for payload in (routed.json(), direct.json()):
                assert payload.pop("cached")
                del payload["request_id"], payload["seconds"]
            assert routed.json()["value"] == direct.json()["value"]
            assert int(relayed.pop("content-length")) == len(routed.body)
            del expected["content-length"]
        elif method == "HEAD":
            assert routed.body == direct.body == b""
        else:
            assert routed.json()["error"]["code"] == \
                direct.json()["error"]["code"]
        assert relayed == expected
        if status == 405:
            assert routed.headers["allow"] == "POST"
        # The replica's own id rides along under its own name.
        assert routed.request_id.startswith("router-")
        assert routed.headers["x-replica-request-id"]
        if status != 200 and method == "GET":
            assert routed.json()["error"]["request_id"] == \
                routed.headers["x-replica-request-id"]

    def test_routed_target_reaches_the_replica_verbatim(self, cluster,
                                                        client):
        """One normalization for the ring key, none for the wire."""
        _, replicas = cluster
        target = "/v1/search/all_fields?page=1&query=spike%20protein+x"
        routed = client.request("GET", target)
        assert routed.status == 200
        assert routed.json()["value"]["query"] == "spike protein x"
        owner = replicas[routed.headers["x-replica"]]
        assert owner.service.query(
            "all_fields", query="spike protein x", page=1).cached

    def test_replica_shed_503_keeps_retry_after(self):
        """A saturated one-worker replica sheds; the hint must survive."""
        replica = _Replica("r0")
        replica.service.close()
        replica.service = QueryService(
            replica.system, ServeConfig(num_workers=1, max_queue=1))
        running, release = threading.Event(), threading.Event()

        def slow(query, page=1):
            running.set()
            assert release.wait(timeout=30.0)
            return {"query": query, "page": page}

        replica.service._dispatch["all_fields"] = slow
        # One permit per request the replica's pool admits.
        admitted = threading.Semaphore(0)
        pool = replica.service._pool
        admit = pool.submit

        def counted_submit(*args, **kwargs):
            future = admit(*args, **kwargs)
            admitted.release()
            return future

        pool.submit = counted_submit
        replica.gateway = BackgroundGateway(replica.service)
        replica.start()
        router = Router([replica.spec()],
                        RouterConfig(probe_interval=0.1)).start()
        threads, statuses = [], []
        try:
            for i in range(2):  # one on the worker, one in the queue
                def run(i=i):
                    with GatewayClient("127.0.0.1", router.port) as cl:
                        statuses.append(cl.search(
                            "all_fields", query=f"slow {i}").status)
                thread = threading.Thread(target=run, daemon=True)
                thread.start()
                threads.append(thread)
                assert admitted.acquire(timeout=10.0)
                if i == 0:
                    # The worker holds "slow 0" before "slow 1" arrives.
                    assert running.wait(timeout=10.0)
            with GatewayClient("127.0.0.1", router.port) as cl:
                shed = cl.search("all_fields", query="shed me")
            with GatewayClient("127.0.0.1", replica.gateway.port) as cl:
                direct = cl.search("all_fields", query="shed me too")
            assert shed.status == direct.status == 503
            assert shed.json()["error"]["code"] == "service_overloaded"
            assert shed.headers["retry-after"] == \
                direct.headers["retry-after"] == "1"
            assert _end_to_end(shed).keys() == _end_to_end(direct).keys()
            release.set()
            for thread in threads:
                thread.join(timeout=10.0)
            assert statuses == [200, 200]
        finally:
            release.set()
            router.stop()
            replica.stop()


class TestWriteFanout:
    def test_ingest_applies_on_every_replica(self, cluster, client):
        _, replicas = cluster
        before = {replica_id: replica.system.store.version
                  for replica_id, replica in replicas.items()}
        response = client.ingest(_corpus(4, start=BASE_PAPERS))
        assert response.status == 200, response.text
        assert response.headers["x-cluster-write-replicas"] == "3"
        for replica_id, replica in replicas.items():
            assert replica.system.store.version > before[replica_id]
        # All replicas moved in lockstep.
        versions = {replica.system.store.version
                    for replica in replicas.values()}
        assert len(versions) == 1

    def test_rejected_batch_is_rejected_everywhere(self, cluster,
                                                   client):
        _, replicas = cluster
        papers = _corpus(2, start=BASE_PAPERS + 10)
        assert client.ingest(papers).status == 200
        duplicate = client.ingest(papers)  # same paper_ids again
        # 409 from the bare docstore path; a WAL-backed replica would
        # answer 422 from the preflight gate — either way, rejected.
        assert duplicate.status in (409, 422)
        versions = {replica.system.store.version
                    for replica in replicas.values()}
        assert len(versions) == 1  # nobody applied the duplicate


class TestWriteDivergence:
    def test_held_out_replica_missing_a_write_never_rejoins(
            self, cluster, client):
        """A replica out of the ring during a committed write diverged.

        Draining (or WAL-replaying) holds a replica out without stigma,
        but a batch committed while it was out means its corpus is
        permanently behind — it must be barred from rejoining.
        """
        router, replicas = cluster
        target = "r1"
        replicas[target].gateway.gateway._draining = True
        assert _wait_until(
            lambda: not _states(router)[target]["in_ring"])
        response = client.ingest(_corpus(3, start=BASE_PAPERS + 20))
        assert response.status == 200, response.text
        assert response.headers["x-cluster-write-replicas"] == "2"
        state = _states(router)[target]
        assert state["diverged"]
        # Recovering from the drain must not bring it back: its corpus
        # is missing the batch.
        replicas[target].gateway.gateway._draining = False
        # Two more sweeps begin, so at least one whole sweep probed the
        # recovered replica.
        sweeps = router.cluster_snapshot()["stats"]["probe_sweeps"]
        assert _wait_until(
            lambda: router.cluster_snapshot()["stats"]["probe_sweeps"]
            >= sweeps + 2)
        state = _states(router)[target]
        assert not state["in_ring"] and state["diverged"]
        assert router.cluster_snapshot()["in_ring"] == 2

    def test_replica_failing_a_committed_write_is_ejected(
            self, cluster, client):
        """Mixed per-replica statuses are divergence, not noise.

        One replica already holds the batch (seeded out-of-band), so
        the fan-out gets a duplicate rejection from it while the other
        two commit — its version history now disagrees with the
        cluster's and it must leave the ring for good.
        """
        router, replicas = cluster
        papers = _corpus(3, start=BASE_PAPERS + 30)
        replicas["r2"].system.ingest(papers)  # out-of-band divergence
        response = client.ingest(papers)
        assert response.status == 200, response.text
        assert response.headers["x-cluster-write-replicas"] == "2"
        state = _states(router)["r2"]
        assert state["diverged"] and not state["in_ring"]
        # Reads keep succeeding on the survivors.
        for i in range(10):
            assert client.search("all_fields",
                                 query=f"mixed{i}").status == 200

    def test_rejected_batch_leaves_membership_untouched(self, cluster,
                                                        client):
        """A batch every replica rejects ejects nobody."""
        router, _ = cluster
        papers = _corpus(2, start=BASE_PAPERS + 40)
        assert client.ingest(papers).status == 200
        assert client.ingest(papers).status in (409, 422)
        assert router.cluster_snapshot()["in_ring"] == 3
        assert not any(state["diverged"]
                       for state in _states(router).values())


class TestBodyLimit:
    def test_oversized_body_is_413_before_buffering(self):
        router = Router([], RouterConfig(
            probe_interval=0.1, max_body_bytes=1024)).start()
        try:
            with GatewayClient("127.0.0.1", router.port) as cl:
                response = cl.request(
                    "POST", "/v1/ingest",
                    headers={"Content-Type": "application/json"},
                    body=b"x" * 4096)
                assert response.status == 413
                _assert_router_error_shape(response, "request_too_large")
        finally:
            router.stop()


class TestFailover:
    def test_killed_replica_ejected_with_zero_failed_requests(
            self, cluster, client):
        router, replicas = cluster
        owner = client.search("all_fields",
                              query="failover").headers["x-replica"]
        replicas[owner].stop()  # the replica vanishes mid-operation
        failures = []
        for i in range(40):
            response = client.search("all_fields", query="failover")
            if response.status != 200:
                failures.append((i, response.status))
            assert response.headers["x-replica"] != owner or \
                response.status == 200
        assert failures == []
        assert _wait_until(
            lambda: not _states(router)[owner]["in_ring"])
        assert _states(router)[owner]["ejected"]
        # Survivors keep serving and the dead replica's range moved.
        new_owner = client.search(
            "all_fields", query="failover").headers["x-replica"]
        assert new_owner != owner

    def test_draining_replica_leaves_ring_without_stigma_and_rejoins(
            self, cluster, client):
        router, replicas = cluster
        target = "r1"
        replicas[target].gateway.gateway._draining = True
        assert _wait_until(
            lambda: not _states(router)[target]["in_ring"])
        state = _states(router)[target]
        assert state["draining"] and not state["ejected"]
        # Requests keep succeeding without the draining replica.
        for i in range(10):
            assert client.search("all_fields",
                                 query=f"drain{i}").status == 200
        replicas[target].gateway.gateway._draining = False
        assert _wait_until(
            lambda: _states(router)[target]["in_ring"])

    def test_all_replicas_down_is_clean_503(self):
        router = Router([], RouterConfig(probe_interval=0.1)).start()
        try:
            with GatewayClient("127.0.0.1", router.port) as cl:
                health = cl.healthz()
                assert health.status == 503
                response = cl.search("all_fields", query="void")
                assert response.status == 503
                _assert_router_error_shape(response, "no_replicas")
                assert "retry-after" in response.headers
                write = cl.ingest(_corpus(1, start=BASE_PAPERS))
                assert write.status == 503
                _assert_router_error_shape(write, "no_replicas")
        finally:
            router.stop()
