"""The shared result-cache server.

One small stdlib-socket process serves every replica in the cluster,
and does one job — it is a cache:

* **cache** — an LRU + TTL map of ``(engine, normalized request key)``
  to a pickled result page, each entry stamped with the data-version
  snapshot it was computed against.  A ``GET`` carries the reader's
  snapshot and hits only on an exact match, so a replica that has not
  applied an ingest yet can never read a page from the future — and a
  replica that has can never read one from the past;
* **invalidation** — ``INVAL`` is the version-counter broadcast an
  ingest commit/rollback sends: entries of that engine stamped with a
  different snapshot are purged eagerly (the ``GET``-side equality
  check keeps correctness even if a broadcast is lost).

It keeps no replica registry: the cluster runner finds its replicas
from the ``gateway listening on http://HOST:PORT`` line each one
prints (:mod:`repro.cluster.runner`).

Connections are handled thread-per-client on the listener shell the
router stands on too (:class:`~repro.cluster.listener.ThreadedListener`
binds, accepts and stops; this module only speaks the frame protocol on
a connection): a cluster has a handful of replicas with one connection
per worker thread each, so the thread count is bounded and tiny, and
blocking handlers keep the server free of event-loop state.  All shared
state sits behind one lock; every operation is a few dict moves, so the
lock is never held across I/O.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import OrderedDict
from typing import Any, Callable

from repro.cluster import protocol as wire
from repro.cluster.listener import ThreadedListener, stop_on_signals

logger = logging.getLogger("repro.cluster.cache")

#: Cache entry: versions snapshot, pickled value, absolute expiry.
_Entry = tuple[tuple[int, ...], bytes, float]


class SharedCacheServer:
    """Serve the cross-process result cache on one TCP socket.

    >>> server = SharedCacheServer(port=0).start()
    >>> server.port > 0
    True
    >>> server.stop()
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_entries: int = 4096,
                 ttl_seconds: float = 300.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.host = host
        self.port = port
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: "OrderedDict[tuple[bytes, bytes], _Entry]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self._listener = ThreadedListener("cacheserver",
                                          self._serve_connection)
        self.stats = {
            "gets": 0, "hits": 0, "misses": 0, "puts": 0,
            "invalidations": 0, "purged": 0, "evictions": 0,
            "expirations": 0, "errors": 0, "connections": 0,
        }

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SharedCacheServer":
        self.port = self._listener.start(self.host, self.port)
        logger.info("shared cache listening on %s:%d",
                    self.host, self.port)
        return self

    def stop(self) -> None:
        self._listener.stop()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def __enter__(self) -> "SharedCacheServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _serve_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self.stats["connections"] += 1
        while True:
            try:
                op, fields = wire.read_frame(conn)
            except (ConnectionError, OSError):
                return
            except wire.ProtocolError as exc:
                with self._lock:
                    self.stats["errors"] += 1
                try:
                    wire.write_frame(conn, wire.OP_ERROR,
                                     str(exc).encode("utf-8"))
                except OSError:
                    pass
                return
            try:
                reply = self._dispatch(op, fields)
            except wire.ProtocolError as exc:
                with self._lock:
                    self.stats["errors"] += 1
                reply = (wire.OP_ERROR, [str(exc).encode("utf-8")])
            try:
                wire.write_frame(conn, reply[0], *reply[1])
            except (ConnectionError, OSError):
                return

    # -- operations -------------------------------------------------------

    def _dispatch(self, op: int,
                  fields: list[bytes]) -> tuple[int, list[bytes]]:
        if op == wire.OP_GET:
            return self._op_get(fields)
        if op == wire.OP_PUT:
            return self._op_put(fields)
        if op == wire.OP_INVALIDATE:
            return self._op_invalidate(fields)
        raise wire.ProtocolError(f"unknown opcode 0x{op:02x}")

    @staticmethod
    def _expect(fields: list[bytes], count: int, op: str) -> None:
        if len(fields) != count:
            raise wire.ProtocolError(
                f"{op} expects {count} field(s), got {len(fields)}")

    def _op_get(self, fields: list[bytes]) -> tuple[int, list[bytes]]:
        self._expect(fields, 3, "GET")
        engine, key, blob = fields
        versions = wire.unpack_versions(blob)
        now = self._clock()
        with self._lock:
            self.stats["gets"] += 1
            entry = self._entries.get((engine, key))
            if entry is None:
                self.stats["misses"] += 1
                return wire.OP_MISS, []
            stamped, value, expires_at = entry
            if stamped != versions:
                # The reader and the entry disagree about the data
                # generation; drop the entry only when the reader is
                # *newer* (the entry is garbage for everyone), keep it
                # when the reader lags (it may still serve the caught-up
                # replicas).
                self.stats["misses"] += 1
                if versions > stamped:
                    del self._entries[(engine, key)]
                    self.stats["purged"] += 1
                return wire.OP_MISS, []
            if now >= expires_at:
                del self._entries[(engine, key)]
                self.stats["expirations"] += 1
                self.stats["misses"] += 1
                return wire.OP_MISS, []
            self._entries.move_to_end((engine, key))
            self.stats["hits"] += 1
            return wire.OP_HIT, [value]

    def _op_put(self, fields: list[bytes]) -> tuple[int, list[bytes]]:
        self._expect(fields, 4, "PUT")
        engine, key, blob, value = fields
        versions = wire.unpack_versions(blob)
        now = self._clock()
        with self._lock:
            self.stats["puts"] += 1
            self._entries[(engine, key)] = (
                versions, value, now + self.ttl_seconds)
            self._entries.move_to_end((engine, key))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats["evictions"] += 1
        return wire.OP_OK, []

    def _op_invalidate(self,
                       fields: list[bytes]) -> tuple[int, list[bytes]]:
        """Version-counter broadcast: purge the engine's stale entries."""
        self._expect(fields, 2, "INVAL")
        engine, blob = fields
        versions = wire.unpack_versions(blob)
        with self._lock:
            self.stats["invalidations"] += 1
            stale = [
                entry_key for entry_key, entry in self._entries.items()
                if entry_key[0] == engine and entry[0] != versions
            ]
            for entry_key in stale:
                del self._entries[entry_key]
            self.stats["purged"] += len(stale)
        return wire.OP_OK, [str(len(stale)).encode("ascii")]

    # -- introspection (in-process callers/tests) -------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {**self.stats, "entries": len(self._entries)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def run_cache_server(host: str, port: int) -> int:
    """Blocking CLI entry point: serve until SIGTERM/SIGINT."""
    server = SharedCacheServer(host=host, port=port).start()
    stop = threading.Event()
    stop_on_signals(stop)
    print(f"cache server listening on {server.host}:{server.port}",
          flush=True)
    stop.wait()
    server.stop()
    print("cache server stopped", flush=True)
    return 0
