"""A tiny synchronous HTTP/1.1 keep-alive client (stdlib sockets only).

Tests, benchmarks, and ``repro-covidkg serve-stats --url`` drive the
gateway through this instead of an external HTTP library: it reuses one
socket across requests (so keep-alive behaviour is actually exercised)
and counts its own reconnects so a test can assert a connection was (or
was not) reused.
"""

from __future__ import annotations

import json
import re
import socket
import time
from typing import Any, Mapping
from urllib.parse import urlencode, urlsplit

from repro.errors import GatewayError

#: Bytes read per socket recv while parsing a response.
_CHUNK = 65536

#: Methods safe to replay on a fresh connection when a keep-alive
#: socket dies mid-request.  POST is deliberately absent: an ingest the
#: server committed before the connection broke would commit twice.
_IDEMPOTENT = frozenset({"GET", "HEAD"})


#: The framing fields a response is read by, found in its raw head
#: without parsing every header line.
_CONTENT_LENGTH = re.compile(
    rb"\r\ncontent-length:[ \t]*([0-9]+)[ \t]*(?=\r\n|$)", re.IGNORECASE)
_CONNECTION_CLOSE = re.compile(
    rb"\r\nconnection:[ \t]*close[ \t]*(?=\r\n|$)", re.IGNORECASE)


class ClientResponse:
    """One parsed HTTP response.

    ``head`` is the status line and header lines as they arrived
    (without the blank line that ends them); ``headers`` is parsed from
    it, names lower-cased, the first time it is read.  A hop that only
    forwards the answer (the cluster router) splices ``head`` instead.
    """

    __slots__ = ("status", "reason", "body", "head", "_headers")

    def __init__(self, status: int, reason: str,
                 headers: dict[str, str] | None = None,
                 body: bytes = b"", head: bytes = b"") -> None:
        self.status = status
        self.reason = reason
        self.body = body
        self.head = head
        self._headers = headers

    @property
    def headers(self) -> dict[str, str]:
        if self._headers is None:
            headers: dict[str, str] = {}
            for line in self.head.decode("latin-1").split("\r\n")[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            self._headers = headers
        return self._headers

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    @property
    def request_id(self) -> str:
        return self.headers.get("x-request-id", "")

    @property
    def keep_alive(self) -> bool:
        if self._headers is None:
            return _CONNECTION_CLOSE.search(self.head) is None
        return self._headers.get("connection", "").lower() != "close"


class GatewayClient:
    """Blocking keep-alive client for one gateway host:port.

    Not thread-safe — one client per driving thread (each keeps its own
    socket, which is the point: N clients == N server connections).
    """

    def __init__(self, host: str, port: int,
                 timeout: float = 30.0,
                 reconnect_wait: float = 1.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: How long a stale-socket retry keeps re-dialling before the
        #: error surfaces.  A restarting replica closes every keep-alive
        #: connection and refuses new ones for a beat; this window turns
        #: that into one transparently retried request instead of a raw
        #: ``ConnectionError``.
        self.reconnect_wait = reconnect_wait
        self._sock: socket.socket | None = None
        self._buffer = b""
        #: Connections established so far (1 after the first request;
        #: still 1 after N keep-alive requests).
        self.connects = 0

    @classmethod
    def from_url(cls, url: str, timeout: float = 30.0) -> "GatewayClient":
        """``http://host:port`` -> a client (the path part is ignored)."""
        split = urlsplit(url if "//" in url else f"//{url}")
        if split.scheme not in ("", "http"):
            raise GatewayError(
                f"only http:// gateway URLs are supported, got {url!r}")
        if split.hostname is None:
            raise GatewayError(f"no host in gateway URL {url!r}")
        return cls(split.hostname, split.port or 80, timeout=timeout)

    # -- connection management --------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            sock.close()
            raise
        self.connects += 1
        self._buffer = b""
        return sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        self._buffer = b""

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- requests ----------------------------------------------------------

    def request(self, method: str, path: str,
                params: Mapping[str, Any] | None = None,
                headers: Mapping[str, str] | None = None,
                body: bytes = b"",
                retry_on_stale: bool = True) -> ClientResponse:
        """One request/response round trip on the persistent connection.

        A keep-alive socket the server has since closed (idle timeout,
        drain, replica restart) surfaces as a send/recv error on the
        *next* request; for idempotent methods ``retry_on_stale``
        transparently replays the request on a fresh connection,
        re-dialling for up to ``reconnect_wait`` so a replica bouncing
        between the two attempts still answers.  Non-idempotent methods
        (POST) always surface the error — the server may have applied
        the request before the connection died, and replaying it would
        apply it twice.
        """
        target = path
        if params:
            target = f"{path}?{urlencode(params)}"
        lines = [
            f"{method} {target} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
        ]
        if body:
            lines.append(f"Content-Length: {len(body)}")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        raw = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        head_only = method == "HEAD"
        fresh = self._sock is None
        try:
            return self._round_trip(raw, head_only=head_only)
        except (ConnectionError, BrokenPipeError, OSError):
            self.close()
            if fresh or not retry_on_stale or \
                    method.upper() not in _IDEMPOTENT:
                raise
            return self._retry_fresh(raw, head_only=head_only)

    def _retry_fresh(self, raw: bytes,
                     head_only: bool = False) -> ClientResponse:
        """Replay ``raw`` on a fresh connection, riding out a restart."""
        deadline = time.monotonic() + self.reconnect_wait
        while True:
            try:
                return self._round_trip(raw, head_only=head_only)
            except (ConnectionError, BrokenPipeError, OSError):
                self.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def get(self, path: str,
            params: Mapping[str, Any] | None = None,
            headers: Mapping[str, str] | None = None) -> ClientResponse:
        return self.request("GET", path, params=params, headers=headers)

    def _round_trip(self, raw: bytes,
                    head_only: bool = False) -> ClientResponse:
        if self._sock is None:
            self._sock = self._connect()
        self._sock.sendall(raw)
        response = self._read_response(head_only=head_only)
        if not response.keep_alive:
            self.close()
        return response

    # -- response parsing --------------------------------------------------

    def _read_more(self) -> None:
        assert self._sock is not None
        chunk = self._sock.recv(_CHUNK)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def _read_response(self, head_only: bool = False) -> ClientResponse:
        end = self._buffer.find(b"\r\n\r\n")
        while end < 0:
            self._read_more()
            end = self._buffer.find(b"\r\n\r\n")
        head = self._buffer[:end]
        status_line = head.partition(b"\r\n")[0].decode("latin-1")
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise GatewayError(f"malformed status line {status_line!r}")
        response = ClientResponse(int(parts[1]),
                                  parts[2] if len(parts) == 3 else "",
                                  head=head)
        start = end + 4
        if head_only:  # HEAD: Content-Length describes the absent body
            self._buffer = self._buffer[start:]
            return response
        match = _CONTENT_LENGTH.search(head)
        stop = start + int(match[1] if match is not None else
                           response.headers.get("content-length", "0"))
        while len(self._buffer) < stop:
            self._read_more()
        buffer = self._buffer
        response.body, self._buffer = buffer[start:stop], buffer[stop:]
        return response

    # -- endpoint helpers --------------------------------------------------

    def healthz(self) -> ClientResponse:
        return self.get("/v1/healthz")

    def stats(self) -> dict[str, Any]:
        response = self.get("/v1/stats")
        if response.status != 200:
            raise GatewayError(
                f"/v1/stats returned {response.status}: "
                f"{response.text[:200]}")
        return response.json()

    def search(self, engine: str, **params: Any) -> ClientResponse:
        return self.get(f"/v1/search/{engine}", params=params)

    def kg_search(self, query: str, **params: Any) -> ClientResponse:
        return self.get("/v1/kg/search",
                        params={"query": query, **params})

    def kg_query(self, query: str, nl: bool = False,
                 **params: Any) -> ClientResponse:
        """Run a KGQL query (or NL question with ``nl=True``)."""
        merged: dict[str, Any] = {"query": query, **params}
        if nl:
            merged["nl"] = "1"
        return self.get("/v1/kg/query", params=merged)

    def ingest(self, papers: list[dict[str, Any]],
               skip_duplicates: bool = False,
               **params: Any) -> ClientResponse:
        """POST a batch of papers to ``/v1/ingest``."""
        body = json.dumps({
            "papers": papers,
            "skip_duplicates": skip_duplicates,
        }).encode("utf-8")
        return self.request(
            "POST", "/v1/ingest", params=params, body=body,
            headers={"Content-Type": "application/json"})
