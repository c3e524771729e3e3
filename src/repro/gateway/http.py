"""Minimal HTTP/1.1 wire handling for the gateway (no I/O here).

Everything in this module is a pure function over bytes: the server
reads a header block off an ``asyncio`` stream and hands it to
:func:`parse_request_head`; handlers produce payloads the server turns
into response bytes with :func:`build_response`.  Keeping the wire
format side-effect free makes the parser unit-testable without opening
a socket — malformed-input cases are just byte strings.

Scope (deliberate): requests the covidkg front end actually makes —
``GET``/``HEAD`` with query strings, optional ``Content-Length`` bodies
(no chunked transfer coding), and HTTP/1.1 keep-alive semantics.
Anything outside that is rejected with a typed
:class:`~repro.errors.BadRequestError` rather than guessed at.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import SplitResult, parse_qsl, unquote, urlsplit

from repro.errors import BadRequestError

#: Protocol limits enforced by :func:`parse_request_head` (the byte
#: ceilings themselves come from ``GatewayConfig``; these bound shape).
MAX_HEADER_COUNT = 64

#: Methods the gateway serves.  ``POST`` is accepted so clients can ship
#: long queries in a body, but every endpoint also works via GET.
ALLOWED_METHODS = ("GET", "HEAD", "POST")

HEAD_TERMINATOR = b"\r\n\r\n"

REASON_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Content",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class Request:
    """One parsed request head (the body is read separately).

    ``path`` and ``params`` are derived from ``target`` the first time
    a caller reads them, so a hop that only forwards the target (the
    cluster router never reads ``params``) does not pay for decoding
    it.  A target ``urlsplit`` refuses raises
    :class:`BadRequestError` from whichever is read first.
    """

    __slots__ = ("method", "target", "version", "headers", "body",
                 "_path", "_params")

    def __init__(self, method: str, target: str, version: str,
                 headers: dict[str, str], body: bytes = b"") -> None:
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers
        self.body = body
        self._path: str | None = None
        self._params: dict[str, str] | None = None

    def _split_target(self) -> SplitResult:
        try:
            return urlsplit(self.target)
        except ValueError as exc:
            raise BadRequestError(
                f"unparseable request target {self.target[:80]!r}: "
                f"{exc}") from None

    @property
    def path(self) -> str:
        if self._path is None:
            self._path = unquote(self._split_target().path)
        return self._path

    @property
    def params(self) -> dict[str, str]:
        if self._params is None:
            self._params = dict(parse_qsl(self._split_target().query,
                                          keep_blank_values=True))
        return self._params

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to keep-alive unless ``Connection: close``."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    @property
    def content_length(self) -> int:
        raw = self.headers.get("content-length")
        if raw is None:
            return 0
        try:
            length = int(raw)
        except ValueError:
            raise BadRequestError(
                f"unparseable Content-Length {raw!r}") from None
        if length < 0:
            raise BadRequestError("negative Content-Length")
        return length

    def param(self, name: str, default: str | None = None) -> str | None:
        return self.params.get(name, default)


def parse_request_head(head: bytes,
                       max_header_bytes: int = 16384) -> Request:
    """Parse ``<request line>\\r\\n<headers>\\r\\n\\r\\n`` into a Request.

    Raises :class:`BadRequestError` for anything malformed or over the
    limits; the server turns that into a 400 and closes the connection
    (a client that framed one request wrong cannot be trusted to frame
    the next one right).  The target is checked only for its leading
    ``/`` here; the rest of it is split when ``path`` or ``params`` is
    first read.
    """
    if len(head) > max_header_bytes:
        raise BadRequestError(
            f"request head of {len(head)} bytes exceeds the "
            f"{max_header_bytes}-byte limit"
        )
    block = head[:-len(HEAD_TERMINATOR)] if \
        head.endswith(HEAD_TERMINATOR) else head
    try:
        text = block.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 total
        raise BadRequestError("undecodable request head") from None
    lines = text.split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise BadRequestError(
            f"malformed request line {request_line[:80]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise BadRequestError(f"unsupported protocol {version!r}")
    if method not in ALLOWED_METHODS:
        raise BadRequestError(f"unsupported method {method!r}")
    if not target.startswith("/"):
        raise BadRequestError(f"unsupported request target {target!r}")
    if len(lines) - 1 > MAX_HEADER_COUNT:
        raise BadRequestError(
            f"{len(lines) - 1} headers exceed the "
            f"{MAX_HEADER_COUNT}-header limit"
        )
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator or not name or name != name.strip() or \
                " " in name or "\t" in name:
            raise BadRequestError(f"malformed header line {line[:80]!r}")
        headers[name.lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise BadRequestError("chunked transfer coding is not supported")
    return Request(method, target, version, headers)


@dataclass
class Response:
    """A handler's answer, before wire serialization."""

    status: int = 200
    payload: Any = None  # JSON-encoded unless ``body`` is set
    #: An already-encoded body, sent as is (set ``content_type`` too
    #: when it is not JSON).
    body: bytes | None = None
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)
    close: bool = False  # force Connection: close


def error_payload(status: int, code: str, message: str,
                  request_id: str) -> Response:
    """An error response not backed by an exception (404, cap sheds)."""
    return Response(
        status=status,
        payload={"error": {
            "code": code,
            "message": message,
            "request_id": request_id,
        }},
    )


def encode_json(payload: Any) -> bytes:
    """The gateway's one JSON wire form: compact, ASCII, ``str`` fallback."""
    return json.dumps(payload, default=str,
                      separators=(",", ":")).encode("utf-8")


def response_head(status: int, content_type: str, length: int, *,
                  request_id: str, persistent: bool,
                  headers: dict[str, str] | None = None) -> str:
    """A response's status line and headers, through the blank line."""
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in headers.items()) if headers else ""
    return (
        f"HTTP/1.1 {status} {REASON_PHRASES.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n"
        f"X-Request-Id: {request_id}\r\n"
        f"Connection: {'keep-alive' if persistent else 'close'}\r\n"
        f"{extra}\r\n"
    )


def build_response(response: Response, *, request_id: str,
                   keep_alive: bool, head_only: bool = False) -> bytes:
    """Serialize one response to HTTP/1.1 bytes.

    ``head_only`` omits the body (HEAD requests) but keeps the
    ``Content-Length`` the corresponding GET would carry.
    """
    body = response.body if response.body is not None \
        else encode_json(response.payload)
    head = response_head(
        response.status, response.content_type, len(body),
        request_id=request_id,
        persistent=keep_alive and not response.close,
        headers=response.headers,
    ).encode("latin-1")
    if head_only:
        return head
    return head + body
