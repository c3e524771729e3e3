"""Blocking client for the shared result cache (replica side).

Design constraints, in order:

1. **The cache must never take a replica down.**  Every cache error —
   refused connection, torn frame, timeout — degrades to a miss (or a
   dropped write) and opens a short circuit breaker; the replica keeps
   serving from its in-process L1 and recomputes what it must.
2. **A hit crosses the process boundary once.**  One request/response
   round trip on a persistent connection; the caller stores the value
   in its L1 so the next lookup never leaves the process.
3. **No socket I/O under a lock.**  Each worker thread keeps its own
   persistent connection (``threading.local``); only the breaker state
   and counters are shared, and the lock around them is never held
   across the wire.
"""

from __future__ import annotations

import json
import pickle
import socket
import threading
import time
from typing import Any, Callable

from repro.cluster import protocol as wire
from repro.errors import GatewayError


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with a typed error."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise GatewayError(
            f"shared cache address must be host:port, got {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise GatewayError(
            f"bad shared cache port in {address!r}") from None
    return host, port


class SharedCacheClient:
    """One replica's connection to the shared cache/coordinator.

    ``breaker_seconds`` is the degradation window: after a transport
    failure every call answers as a miss/no-op without touching the
    socket until the window lapses, then a fresh connection is tried.
    Counters make the degradation observable in stats.
    """

    def __init__(self, address: str, timeout: float = 2.0,
                 breaker_seconds: float = 1.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.host, self.port = parse_address(address)
        self.timeout = timeout
        self.breaker_seconds = breaker_seconds
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._broken_until = 0.0
        self.stats = {
            "hits": 0, "misses": 0, "puts": 0, "invalidations": 0,
            "errors": 0, "breaker_skips": 0, "connects": 0,
        }

    # -- connection management --------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            sock.close()
            raise
        self._count("connects")
        return sock

    def _drop_connection(self) -> None:
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._local.sock = None

    def close(self) -> None:
        """Close this thread's connection (others close on GC/exit)."""
        self._drop_connection()

    def __enter__(self) -> "SharedCacheClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------

    def _breaker_open(self) -> bool:
        with self._lock:
            if self._clock() < self._broken_until:
                self.stats["breaker_skips"] += 1
                return True
        return False

    def _trip_breaker(self) -> None:
        with self._lock:
            self.stats["errors"] += 1
            self._broken_until = self._clock() + self.breaker_seconds

    def _call(self, op: int,
              *fields: bytes) -> tuple[int, list[bytes]] | None:
        """One round trip; ``None`` when degraded (breaker open/error).

        The frame is packed before any socket I/O: an oversized request
        (e.g. a huge key) is a deterministic client-side condition, so
        it degrades this one call without dropping a healthy connection
        or tripping the breaker for everyone else.  A dead persistent
        socket (cache server restarted between calls) gets one
        fresh-socket retry; a failure on a fresh connection opens the
        breaker instead.
        """
        try:
            payload = wire.pack_frame(op, *fields)
        except wire.ProtocolError:
            self._count("errors")
            return None
        if self._breaker_open():
            return None
        for _ in (0, 1):
            sock = getattr(self._local, "sock", None)
            fresh = sock is None
            try:
                if sock is None:
                    sock = self._connect()
                    self._local.sock = sock
                sock.sendall(payload)
                return wire.read_frame(sock)
            except (ConnectionError, OSError, wire.ProtocolError):
                self._drop_connection()
                if fresh:
                    break
        self._trip_breaker()
        return None

    @staticmethod
    def _key_bytes(key: Any) -> bytes:
        """The L1 cache key, serialized canonically for the wire.

        ``repr`` of the normalized key tuple is deterministic for the
        str/int/bool/None parameter values requests are built from.
        """
        return repr(key).encode("utf-8")

    # -- cache operations --------------------------------------------------

    def get(self, engine: str, key: Any,
            versions: tuple[int, ...]) -> tuple[bool, Any]:
        """Look up one normalized request. Returns ``(hit, value)``."""
        reply = self._call(
            wire.OP_GET, engine.encode("utf-8"), self._key_bytes(key),
            wire.pack_versions(versions))
        if reply is None:
            return False, None
        op, fields = reply
        if op == wire.OP_HIT and fields:
            try:
                value = pickle.loads(fields[0])
            except Exception:
                self._count("errors")
                return False, None
            self._count("hits")
            return True, value
        self._count("misses")
        return False, None

    def put(self, engine: str, key: Any, versions: tuple[int, ...],
            value: Any) -> bool:
        """Publish one computed page; ``False`` when dropped (degraded)."""
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self._count("errors")
            return False
        key_bytes = self._key_bytes(key)
        versions_blob = wire.pack_versions(versions)
        # 64 bytes covers the frame/field framing overhead.
        if len(blob) + len(key_bytes) + len(engine) + \
                len(versions_blob) + 64 > wire.MAX_FRAME_BYTES:
            # An oversized page (or key) is not cacheable, not an error.
            return False
        reply = self._call(
            wire.OP_PUT, engine.encode("utf-8"), key_bytes,
            versions_blob, blob)
        if reply is None or reply[0] != wire.OP_OK:
            return False
        self._count("puts")
        return True

    def invalidate(self, engine: str,
                   versions: tuple[int, ...]) -> int:
        """Broadcast the engine's post-commit version snapshot.

        Returns the number of entries the server purged (0 when
        degraded — the GET-side version equality check still protects
        correctness).
        """
        reply = self._call(wire.OP_INVALIDATE, engine.encode("utf-8"),
                           wire.pack_versions(versions))
        if reply is None or reply[0] != wire.OP_OK:
            return 0
        self._count("invalidations")
        try:
            return int(reply[1][0]) if reply[1] else 0
        except ValueError:
            return 0

    def ping(self) -> bool:
        reply = self._call(wire.OP_PING)
        return reply is not None and reply[0] == wire.OP_OK

    # -- coordinator operations -------------------------------------------

    def register(self, replica_id: str, host: str, port: int,
                 pid: int = 0) -> bool:
        payload = json.dumps({
            "replica_id": replica_id, "host": host, "port": port,
            "pid": pid,
        }).encode("utf-8")
        reply = self._call(wire.OP_REGISTER, payload)
        return reply is not None and reply[0] == wire.OP_OK

    def deregister(self, replica_id: str) -> bool:
        reply = self._call(wire.OP_DEREGISTER,
                           replica_id.encode("utf-8"))
        return reply is not None and reply[0] == wire.OP_OK

    def list_replicas(self) -> list[dict[str, Any]]:
        reply = self._call(wire.OP_LIST)
        if reply is None or reply[0] != wire.OP_OK or not reply[1]:
            return []
        try:
            replicas = json.loads(reply[1][0].decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._count("errors")
            return []
        return replicas if isinstance(replicas, list) else []

    def server_stats(self) -> dict[str, Any]:
        reply = self._call(wire.OP_STATS)
        if reply is None or reply[0] != wire.OP_OK or not reply[1]:
            return {}
        try:
            stats = json.loads(reply[1][0].decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return {}
        return stats if isinstance(stats, dict) else {}

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str) -> None:
        with self._lock:
            self.stats[name] += 1

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.stats)
