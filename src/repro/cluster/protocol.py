"""The shared-cache wire protocol: length-prefixed binary frames.

One frame per message, both directions::

    +----------+--------+-----------------------------------------+
    | !I total | B op   | fields: (!I length, bytes) repeated     |
    +----------+--------+-----------------------------------------+

``total`` counts everything after the length prefix itself.  Fields
are opaque byte strings; higher layers give them meaning per opcode.
Keeping the framing sans-I/O (:func:`pack_frame` / :func:`unpack_frame`
are pure functions over bytes) makes it unit-testable without sockets,
and the same helpers serve the blocking client, the threaded server,
and the router's asyncio streams.

Requests
--------

========= ==================================== ==================
opcode    fields                               reply
========= ==================================== ==================
``GET``   engine, key, versions                ``HIT value`` /
                                               ``MISS``
``PUT``   engine, key, versions, value         ``OK``
``INVAL`` engine, versions                     ``OK purged``
========= ==================================== ==================

Any other request opcode is answered ``ERROR``.  Membership is not the
cache's business: the cluster runner learns each replica's address
from the line the replica prints once its socket is bound.

``versions`` is the serving tier's data-version snapshot (the
docstore/KG counters a cached page was computed against), packed by
:func:`pack_versions`.  ``INVAL`` is the version-counter broadcast an
ingest commit/rollback sends: the server eagerly purges every entry of
that engine whose snapshot differs from the broadcast one (lazy
equality checks on ``GET`` keep correctness even when a broadcast is
lost).

Values are pickled Python objects.  That is a deliberate trust
boundary: the cache server is an internal tier that binds loopback (or
a private interface) and serves only this cluster's replicas — the
same stance ``multiprocessing`` takes for its connections.
"""

from __future__ import annotations

import socket
import struct
from typing import Iterable

from repro.errors import GatewayError

#: Request opcodes (one byte on the wire).
OP_GET = 0x02
OP_PUT = 0x03
OP_INVALIDATE = 0x04

#: Reply opcodes.
OP_OK = 0x10
OP_HIT = 0x11
OP_MISS = 0x12
OP_ERROR = 0x1F

#: A frame (length prefix included) may not exceed this many bytes —
#: result pages are small; anything bigger is a protocol error, not a
#: cacheable value.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LEN = struct.Struct("!I")
_OP = struct.Struct("!B")


class ProtocolError(GatewayError):
    """A malformed or oversized shared-cache frame."""


def pack_frame(op: int, *fields: bytes) -> bytes:
    """Serialize one message to wire bytes (length prefix included)."""
    body = bytearray(_OP.pack(op))
    for field in fields:
        body += _LEN.pack(len(field))
        body += field
    if len(body) + _LEN.size > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _LEN.pack(len(body)) + bytes(body)


def unpack_frame(body: bytes) -> tuple[int, list[bytes]]:
    """Parse a frame body (the bytes after the length prefix)."""
    if not body:
        raise ProtocolError("empty frame")
    op = body[0]
    fields: list[bytes] = []
    offset = 1
    while offset < len(body):
        if offset + _LEN.size > len(body):
            raise ProtocolError("truncated field length")
        (length,) = _LEN.unpack_from(body, offset)
        offset += _LEN.size
        if offset + length > len(body):
            raise ProtocolError("truncated field body")
        fields.append(body[offset:offset + length])
        offset += length
    return op, fields


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``ConnectionError``."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            raise ConnectionError("cache peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[int, list[bytes]]:
    """Blocking read of one frame off a socket."""
    (length,) = _LEN.unpack(recv_exact(sock, _LEN.size))
    if length == 0 or length + _LEN.size > MAX_FRAME_BYTES:
        raise ProtocolError(f"bad frame length {length}")
    return unpack_frame(recv_exact(sock, length))


def write_frame(sock: socket.socket, op: int, *fields: bytes) -> None:
    sock.sendall(pack_frame(op, *fields))


# -- version snapshots ------------------------------------------------------

_VCOUNT = struct.Struct("!B")
_VITEM = struct.Struct("!q")


def pack_versions(versions: Iterable[int]) -> bytes:
    """A data-version snapshot as bytes (count byte + signed 64-bit each)."""
    items = tuple(int(v) for v in versions)
    if len(items) > 255:
        raise ProtocolError(f"{len(items)} version counters; max 255")
    return _VCOUNT.pack(len(items)) + b"".join(
        _VITEM.pack(item) for item in items)


def unpack_versions(blob: bytes) -> tuple[int, ...]:
    if not blob:
        raise ProtocolError("empty version blob")
    (count,) = _VCOUNT.unpack_from(blob, 0)
    if len(blob) != _VCOUNT.size + count * _VITEM.size:
        raise ProtocolError(
            f"version blob of {len(blob)} bytes does not hold "
            f"{count} counter(s)")
    return tuple(
        _VITEM.unpack_from(blob, _VCOUNT.size + i * _VITEM.size)[0]
        for i in range(count))
