"""The cluster front end: one port, N replicas, cache-affine routing.

The router owns the client-facing socket and forwards every request to
a replica gateway picked off a consistent-hash ring
(:class:`~repro.cluster.ring.HashRing`) keyed by the normalized request
target — so the same search lands on the same replica and its
in-process L1 stays warm.  Three request classes:

* **reads** (``GET``/``HEAD``, queries over ``POST``) walk the key's
  preference list: a replica that fails at the transport level is
  marked unreachable, dropped from the ring, and the request retries on
  the next replica — the client sees one answer, never a
  ``ConnectionError``;
* **writes** (``POST /v1/ingest``) fan out to *every* in-ring replica
  (write-all/read-any): once a batch commits anywhere, every replica
  that missed it — transport failure, per-replica HTTP error, or
  sitting out of the ring while the batch landed — is marked
  **diverged** and can never re-enter the ring, because its corpus now
  disagrees with the cluster's;
* **router-local** endpoints (``/v1/healthz``, ``/v1/cluster``) answer
  from the router itself with cluster topology and per-replica state.

A background probe thread polls each replica's ``/v1/healthz``:
``fail_threshold`` consecutive transport failures eject it (its hash
arcs re-spread over the survivors); a ``draining`` reply (SIGTERM
shutdown) removes it gracefully without the ejection stigma; a replica
reporting WAL ``replaying`` is kept out of the ring until recovery
finishes; a previously unreachable — but not diverged — replica that
answers again rejoins automatically.

Threading: accept loop + thread per client connection + one probe
thread, all blocking (the router holds no index data and does no
computation — it is pure I/O plumbing).  Backend connections are owned
per connection thread, so no socket is ever shared or used under a
lock.
"""

from __future__ import annotations

import itertools
import logging
import os
import socket
import threading
from dataclasses import dataclass
from typing import Any
from urllib.parse import urlencode

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.errors import BadRequestError, PayloadTooLargeError
from repro.gateway.client import ClientResponse, GatewayClient
from repro.gateway.http import (
    HEAD_TERMINATOR,
    Request,
    Response,
    build_response,
    error_payload,
    parse_request_head,
)

logger = logging.getLogger("repro.cluster.router")

#: Paths the router answers itself rather than forwarding.
_LOCAL_PATHS = ("/v1/healthz", "/v1/cluster")

#: Hop-by-hop / recomputed headers never forwarded to a replica.
_HOP_HEADERS = frozenset({"connection", "host", "content-length"})

#: Replica response headers the relay re-issues itself: the client-side
#: ``Connection``, and the replica's request id under its own name
#: beside the router's ``X-Request-Id``.
_RELAY_OWN_HEADERS = frozenset({"connection", "x-request-id"})

#: Socket timeouts (seconds) of a health probe and of a forwarded request.
PROBE_TIMEOUT = 1.0
FORWARD_TIMEOUT = 30.0


@dataclass
class ReplicaSpec:
    """Where one replica gateway listens."""

    replica_id: str
    host: str
    port: int
    pid: int = 0


@dataclass
class RouterConfig:
    host: str = "127.0.0.1"
    port: int = 0
    #: Seconds between health-probe sweeps.
    probe_interval: float = 0.25
    #: Consecutive failed probes before a replica is ejected.
    fail_threshold: int = 3
    vnodes: int = DEFAULT_VNODES
    max_header_bytes: int = 16384
    #: Bodies past this are refused with 413 before being buffered;
    #: deliberately above the replica gateway's own (authoritative)
    #: limit so the router cap only guards the router's memory.
    max_body_bytes: int = 8 * 1024 * 1024
    idle_timeout_seconds: float = 30.0


class _ReplicaState:
    """Mutable per-replica bookkeeping (guarded by the router lock)."""

    def __init__(self, spec: ReplicaSpec) -> None:
        self.spec = spec
        self.failures = 0
        self.in_ring = False
        self.draining = False
        self.replaying = False
        self.diverged = False
        self.ejected = False
        self.versions: dict[str, int] | None = None
        self.last_error = ""

    def snapshot(self) -> dict[str, Any]:
        return {
            "replica_id": self.spec.replica_id,
            "host": self.spec.host,
            "port": self.spec.port,
            "pid": self.spec.pid,
            "in_ring": self.in_ring,
            "draining": self.draining,
            "replaying": self.replaying,
            "diverged": self.diverged,
            "ejected": self.ejected,
            "failures": self.failures,
            "versions": self.versions,
            "last_error": self.last_error,
        }


class Router:
    """Serve one routed port in front of N replica gateways.

    >>> # doctest-style sketch; tests boot real replicas behind it
    >>> Router([ReplicaSpec("r0", "127.0.0.1", 8101)])  # doctest: +ELLIPSIS
    <repro.cluster.router.Router object at ...>
    """

    def __init__(self, replicas: list[ReplicaSpec],
                 config: RouterConfig | None = None) -> None:
        self.config = config or RouterConfig()
        self._lock = threading.Lock()
        self._states: dict[str, _ReplicaState] = {}
        self._ring = HashRing(vnodes=self.config.vnodes)
        self._sock: socket.socket | None = None
        self.port: int | None = None
        self._accept_thread: threading.Thread | None = None
        self._probe_thread: threading.Thread | None = None
        self._conn_threads: set[threading.Thread] = set()
        self._conns: set[socket.socket] = set()
        self._closed = threading.Event()
        self._ids = itertools.count(1)
        self.stats = {
            "requests": 0, "forwarded": 0, "failovers": 0,
            "writes": 0, "write_fanouts": 0, "ejections": 0,
            "rejoins": 0, "unroutable": 0, "probe_sweeps": 0,
        }
        for spec in replicas:
            self.add_replica(spec)

    # -- membership --------------------------------------------------------

    def add_replica(self, spec: ReplicaSpec) -> None:
        """Admit a replica optimistically; probes confirm or eject it."""
        with self._lock:
            state = self._states.get(spec.replica_id)
            if state is not None and state.diverged:
                return  # a diverged replica can never come back
            self._states[spec.replica_id] = _ReplicaState(spec)
            self._states[spec.replica_id].in_ring = True
            self._ring.add(spec.replica_id)

    def _eject(self, replica_id: str, reason: str, *,
               diverged: bool = False) -> None:
        with self._lock:
            state = self._states.get(replica_id)
            if state is None:
                return
            state.last_error = reason
            state.diverged = state.diverged or diverged
            if not state.in_ring:
                return
            state.in_ring = False
            state.ejected = True
            self._ring.remove(replica_id)
            self.stats["ejections"] += 1
            survivors = len(self._ring)
        logger.warning("ejected replica %s (%s); %d replica(s) remain",
                       replica_id, reason, survivors)

    def _rejoin(self, replica_id: str) -> None:
        with self._lock:
            state = self._states.get(replica_id)
            if state is None or state.in_ring or state.diverged or \
                    state.draining or state.replaying:
                return
            state.in_ring = True
            state.ejected = False
            state.failures = 0
            self._ring.add(replica_id)
            self.stats["rejoins"] += 1
        logger.info("replica %s rejoined the ring", replica_id)

    def _mark_unreachable(self, replica_id: str, error: str) -> None:
        """A forwarding attempt hit a transport error: drop it now.

        The probe loop re-admits the replica if it was a blip; a
        SIGKILLed process stays out.  Dropping immediately (instead of
        waiting ``fail_threshold`` probes) keeps later requests from
        re-discovering the corpse one timeout at a time.
        """
        self._eject(replica_id, f"unreachable while forwarding: {error}")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Router":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.config.host, self.config.port))
            sock.listen(128)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self.port = sock.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="router-accept", daemon=True)
        self._accept_thread.start()
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="router-probe", daemon=True)
        self._probe_thread.start()
        logger.info("router listening on %s:%d",
                    self.config.host, self.port)
        return self

    def stop(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._sock is not None:
            # shutdown() wakes the thread blocked in accept(); close()
            # alone leaves it parked (and the LISTEN socket alive) on
            # Linux.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        # Unblock connection threads parked in recv() so stop() never
        # waits out the join timeout: like accept(), a recv() blocked in
        # another thread only wakes on shutdown(), not close().  Each
        # thread closes its own socket on the way out.
        with self._lock:
            conns = list(self._conns)
            conn_threads = list(self._conn_threads)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in (self._accept_thread, self._probe_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        for thread in conn_threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- health probing ----------------------------------------------------

    def _probe_loop(self) -> None:
        clients: dict[str, GatewayClient] = {}
        try:
            while not self._closed.wait(self.config.probe_interval):
                with self._lock:
                    specs = [state.spec
                             for state in self._states.values()
                             if not state.diverged]
                    self.stats["probe_sweeps"] += 1
                for spec in specs:
                    self._probe_one(spec, clients)
        finally:
            for client in clients.values():
                client.close()

    def _probe_one(self, spec: ReplicaSpec,
                   clients: dict[str, GatewayClient]) -> None:
        client = clients.get(spec.replica_id)
        if client is None:
            client = GatewayClient(spec.host, spec.port,
                                   timeout=PROBE_TIMEOUT,
                                   reconnect_wait=0.0)
            clients[spec.replica_id] = client
        try:
            response = client.healthz()
            payload = response.json()
        except Exception as exc:  # noqa: BLE001 - any probe failure counts
            client.close()
            with self._lock:
                state = self._states.get(spec.replica_id)
                if state is None:
                    return
                state.failures += 1
                state.last_error = f"probe: {exc}"
                failures = state.failures
                in_ring = state.in_ring
            if in_ring and failures >= self.config.fail_threshold:
                self._eject(spec.replica_id,
                            f"{failures} consecutive probe failures")
            return
        # Any non-200 from a live process means "alive but not taking
        # traffic": an explicit draining healthz, or the connection-shed
        # 503 a draining/overloaded gateway answers new sockets with.
        # Hold it out of the ring without the ejection stigma — it
        # rejoins the moment probes see 200 again.
        draining = response.status != 200
        replaying = bool(payload.get("ingest", {}).get("replaying"))
        with self._lock:
            state = self._states.get(spec.replica_id)
            if state is None:
                return
            state.failures = 0
            state.draining = draining
            state.replaying = replaying
            versions = payload.get("versions")
            if isinstance(versions, dict):
                state.versions = versions
            should_hold_out = draining or replaying
            in_ring = state.in_ring
            if should_hold_out and in_ring:
                state.in_ring = False
                self._ring.remove(spec.replica_id)
        if draining and in_ring:
            logger.info("replica %s draining; removed from ring",
                        spec.replica_id)
        elif replaying and in_ring:
            logger.info("replica %s replaying its WAL; held out of ring",
                        spec.replica_id)
        elif not in_ring and not draining and not replaying:
            self._rejoin(spec.replica_id)

    # -- request plumbing --------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed: shutting down
            if self._closed.is_set():
                conn.close()
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="router-conn", daemon=True)
            with self._lock:
                self._conn_threads.add(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        backends: dict[str, GatewayClient] = {}
        buffer = b""
        with self._lock:
            self._conns.add(conn)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self.config.idle_timeout_seconds)
            while not self._closed.is_set():
                try:
                    request, buffer = self._read_request(conn, buffer)
                except (ConnectionError, OSError):
                    return
                except PayloadTooLargeError as exc:
                    self._refuse(conn, 413, "request_too_large", exc)
                    return
                except BadRequestError as exc:
                    self._refuse(conn, 400, "bad_request", exc)
                    return
                if request is None:
                    return  # clean EOF between requests
                try:
                    conn.sendall(self._handle(request, backends))
                except (ConnectionError, OSError):
                    return
                if not request.keep_alive:
                    return
        finally:
            conn.close()
            with self._lock:
                self._conns.discard(conn)
                self._conn_threads.discard(threading.current_thread())
            for client in backends.values():
                client.close()

    def _read_request(self, conn: socket.socket, buffer: bytes
                      ) -> tuple[Request | None, bytes]:
        while HEAD_TERMINATOR not in buffer:
            chunk = conn.recv(65536)
            if not chunk:
                if buffer:
                    raise BadRequestError("truncated request head")
                return None, b""
            buffer += chunk
            # Only the head is size-capped here; a body that arrived in
            # the same recv as its head is fine (it is length-checked
            # against Content-Length below).
            if HEAD_TERMINATOR not in buffer and \
                    len(buffer) > self.config.max_header_bytes + 4096:
                raise BadRequestError("request head too large")
        head, _, buffer = buffer.partition(HEAD_TERMINATOR)
        request = parse_request_head(
            head + HEAD_TERMINATOR,
            max_header_bytes=self.config.max_header_bytes)
        length = request.content_length
        if length > self.config.max_body_bytes:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit")
        while len(buffer) < length:
            chunk = conn.recv(65536)
            if not chunk:
                raise BadRequestError("truncated request body")
            buffer += chunk
        request.body, buffer = buffer[:length], buffer[length:]
        return request, buffer

    def _next_request_id(self) -> str:
        return f"router-{next(self._ids):06x}"

    def _refuse(self, conn: socket.socket, status: int, code: str,
                exc: BaseException) -> None:
        """Answer a request the router could not frame, then close."""
        request_id = self._next_request_id()
        response = error_payload(status, code, str(exc), request_id)
        conn.sendall(build_response(response, request_id=request_id,
                                    keep_alive=False))

    # -- routing -----------------------------------------------------------

    @staticmethod
    def routing_key(request: Request) -> bytes:
        """The affinity key: path + sorted query parameters.

        Sorting makes ``?a=1&b=2`` and ``?b=2&a=1`` the same key, which
        is the same normalization the replica's cache key performs — so
        ring affinity and L1 residency agree.
        """
        query = urlencode(sorted(request.params.items()))
        return f"{request.path}?{query}".encode("utf-8")

    def _handle(self, request: Request,
                backends: dict[str, GatewayClient]) -> bytes:
        """One request in, the wire bytes of its answer out."""
        with self._lock:
            self.stats["requests"] += 1
        request_id = self._next_request_id()
        if request.path in _LOCAL_PATHS:
            return self._own(request, request_id, self._local(request))
        if request.method == "POST" and request.path == "/v1/ingest":
            return self._forward_write(request, request_id, backends)
        return self._forward_read(request, request_id, backends)

    @staticmethod
    def _own(request: Request, request_id: str,
             response: Response) -> bytes:
        """An answer the router made itself (local endpoint, no replica)."""
        return build_response(response, request_id=request_id,
                              keep_alive=request.keep_alive,
                              head_only=request.method == "HEAD")

    def _no_replicas(self, request: Request, request_id: str,
                     message: str) -> bytes:
        with self._lock:
            self.stats["unroutable"] += 1
        response = error_payload(503, "no_replicas", message, request_id)
        response.headers["Retry-After"] = "1"
        return self._own(request, request_id, response)

    @staticmethod
    def _relay(request: Request, request_id: str,
               upstream: ClientResponse, replica_id: str,
               *extra: str) -> bytes:
        """A replica's answer, passed on as the bytes it arrived in.

        Status, end-to-end headers and body are the replica's own —
        ``Content-Length`` included, which for a ``HEAD`` describes the
        body that was never sent.  The router adds its own request id
        (the replica's moves to ``X-Replica-Request-Id``), the replica's
        name, any ``extra`` header lines, and the ``Connection`` of the
        client-side hop.
        """
        lines = [f"HTTP/1.1 {upstream.status} {upstream.reason}"]
        for name, value in upstream.headers.items():
            if name not in _RELAY_OWN_HEADERS:
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

    def _backend(self, backends: dict[str, GatewayClient],
                 spec: ReplicaSpec) -> GatewayClient:
        client = backends.get(spec.replica_id)
        if client is None:
            # reconnect_wait=0: a dead replica should fail over to the
            # next one immediately, not be re-dialled for a second.
            client = GatewayClient(spec.host, spec.port,
                                   timeout=FORWARD_TIMEOUT,
                                   reconnect_wait=0.0)
            backends[spec.replica_id] = client
        return client

    @staticmethod
    def _forward_headers(request: Request) -> dict[str, str]:
        return {name: value for name, value in request.headers.items()
                if name not in _HOP_HEADERS}

    def _forward_read(self, request: Request, request_id: str,
                      backends: dict[str, GatewayClient]) -> bytes:
        key = self.routing_key(request)
        with self._lock:
            preference = self._ring.preference(key)
            specs = [self._states[replica_id].spec
                     for replica_id in preference
                     if replica_id in self._states]
        for spec in specs:
            client = self._backend(backends, spec)
            try:
                # The target goes out exactly as it came in: the ring
                # key is the only normalization a routed read pays for.
                upstream = client.request(
                    request.method, request.target,
                    headers=self._forward_headers(request),
                    body=request.body)
            except (ConnectionError, OSError) as exc:
                self._mark_unreachable(spec.replica_id, str(exc))
                with self._lock:
                    self.stats["failovers"] += 1
                continue
            with self._lock:
                self.stats["forwarded"] += 1
            return self._relay(request, request_id, upstream,
                               spec.replica_id)
        return self._no_replicas(
            request, request_id,
            "no healthy replica could serve the request")

    def _forward_write(self, request: Request, request_id: str,
                       backends: dict[str, GatewayClient]) -> bytes:
        """Write-all fan-out: every in-ring replica applies the batch.

        A replica that misses a committed batch has diverged and can
        never rejoin, whichever way it missed it:

        * a transport failure mid-write — whether or not it committed,
          the router can no longer prove its corpus matches the others';
        * a non-2xx answer while other replicas committed — it rejected
          (or failed) a batch the cluster applied;
        * being out of the ring (probe-ejected, draining, or replaying
          its WAL) while the batch committed — it never saw the write
          at all, so rejoining would serve a stale corpus.

        Only a batch every reached replica rejects (a deterministic
        client error, e.g. a duplicate) leaves membership untouched.
        """
        with self._lock:
            self.stats["writes"] += 1
            specs = sorted(
                (state.spec for state in self._states.values()
                 if state.in_ring),
                key=lambda spec: spec.replica_id)
            held_out = [replica_id
                        for replica_id, state in self._states.items()
                        if not state.in_ring and not state.diverged]
        results: list[tuple[ReplicaSpec, ClientResponse]] = []
        for spec in specs:
            client = self._backend(backends, spec)
            try:
                upstream = client.request(
                    "POST", request.target,
                    headers=self._forward_headers(request),
                    body=request.body)
            except (ConnectionError, OSError) as exc:
                self._eject(spec.replica_id,
                            f"missed a write: {exc}", diverged=True)
                continue
            with self._lock:
                self.stats["write_fanouts"] += 1
            results.append((spec, upstream))
        if not results:
            return self._no_replicas(
                request, request_id,
                "no healthy replica accepted the write")
        committed = [(spec, upstream) for spec, upstream in results
                     if 200 <= upstream.status < 300]
        if committed:
            for spec, upstream in results:
                if not 200 <= upstream.status < 300:
                    self._eject(
                        spec.replica_id,
                        f"write failed with HTTP {upstream.status} "
                        f"while {len(committed)} replica(s) committed",
                        diverged=True)
            # _eject on an out-of-ring replica only stamps the diverged
            # flag (no ejection stats) — exactly the rejoin bar needed.
            for replica_id in held_out:
                self._eject(replica_id,
                            "held out of the ring while a write "
                            "committed", diverged=True)
            chosen_spec, chosen = committed[0]
        else:
            chosen_spec, chosen = results[0]
        applied = len(committed) if committed else len(results)
        return self._relay(
            request, request_id, chosen, chosen_spec.replica_id,
            f"X-Cluster-Write-Replicas: {applied}")

    # -- router-local endpoints -------------------------------------------

    def _local(self, request: Request) -> Response:
        if request.path == "/v1/healthz":
            snapshot = self.cluster_snapshot()
            status = 200 if snapshot["in_ring"] else 503
            return Response(status=status, payload={
                "status": "ok" if snapshot["in_ring"] else "no_replicas",
                "role": "router",
                "replicas": snapshot["in_ring"],
            })
        return Response(payload=self.cluster_snapshot())

    def cluster_snapshot(self) -> dict[str, Any]:
        with self._lock:
            states = [state.snapshot()
                      for state in self._states.values()]
            stats = dict(self.stats)
            in_ring = len(self._ring)
        states.sort(key=lambda state: state["replica_id"])
        return {
            "role": "router",
            "pid": os.getpid(),
            "in_ring": in_ring,
            "replicas": states,
            "stats": stats,
        }

