"""The shared result-cache server (and cluster coordinator).

One small stdlib-socket process serves every replica in the cluster:

* **cache** — an LRU + TTL map of ``(engine, normalized request key)``
  to a pickled result page, each entry stamped with the data-version
  snapshot it was computed against.  A ``GET`` carries the reader's
  snapshot and hits only on an exact match, so a replica that has not
  applied an ingest yet can never read a page from the future — and a
  replica that has can never read one from the past;
* **invalidation** — ``INVAL`` is the version-counter broadcast an
  ingest commit/rollback sends: entries of that engine stamped with a
  different snapshot are purged eagerly (the ``GET``-side equality
  check keeps correctness even if a broadcast is lost);
* **coordination** — replicas ``REGISTER`` themselves (id, host, port,
  pid) and the router discovers the topology with ``LIST``.

Connections are handled thread-per-client: a cluster has a handful of
replicas with one connection per worker thread each, so the thread
count is bounded and tiny, and blocking handlers keep the server free
of event-loop state.  All shared state sits behind one lock; every
operation is a few dict moves, so the lock is never held across I/O.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from collections import OrderedDict
from typing import Any, Callable

from repro.cluster import protocol as wire

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
        self._replicas: dict[str, dict[str, Any]] = {}
        # One condition guards all shared state; REGISTER notifies it so
        # an in-process runner can wait for its replicas without polling.
        self._lock = threading.Condition()
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: set[threading.Thread] = set()
        self._conns: set[socket.socket] = set()
        self._closed = False
        self.stats = {
            "gets": 0, "hits": 0, "misses": 0, "puts": 0,
            "invalidations": 0, "purged": 0, "evictions": 0,
            "expirations": 0, "errors": 0, "connections": 0,
        }

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SharedCacheServer":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            sock.listen(128)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self.port = sock.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cacheserver-accept",
            daemon=True)
        self._accept_thread.start()
        logger.info("shared cache listening on %s:%d",
                    self.host, self.port)
        return self

    def stop(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
            conn_threads = list(self._conn_threads)
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
        # Unblock connection threads parked in recv() — shutdown(), not
        # close(), is what wakes them; each closes its own socket on the
        # way out, so no accepted socket keeps the port busy past stop().
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in conn_threads:
            thread.join(timeout=5.0)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def __enter__(self) -> "SharedCacheServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- accept/serve loops -----------------------------------------------

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # socket closed: shutting down
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self.stats["connections"] += 1
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="cacheserver-conn", daemon=True)
            with self._lock:
                self._conn_threads.add(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self._conns.add(conn)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        finally:
            conn.close()
            with self._lock:
                self._conns.discard(conn)
                self._conn_threads.discard(threading.current_thread())

    # -- operations -------------------------------------------------------

    def _dispatch(self, op: int,
                  fields: list[bytes]) -> tuple[int, list[bytes]]:
        if op == wire.OP_PING:
            return wire.OP_OK, []
        if op == wire.OP_GET:
            return self._op_get(fields)
        if op == wire.OP_PUT:
            return self._op_put(fields)
        if op == wire.OP_INVALIDATE:
            return self._op_invalidate(fields)
        if op == wire.OP_REGISTER:
            return self._op_register(fields)
        if op == wire.OP_DEREGISTER:
            return self._op_deregister(fields)
        if op == wire.OP_LIST:
            return self._op_list()
        if op == wire.OP_STATS:
            return self._op_stats()
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

    # -- coordinator ------------------------------------------------------

    def _op_register(self,
                     fields: list[bytes]) -> tuple[int, list[bytes]]:
        self._expect(fields, 1, "REGISTER")
        try:
            info = json.loads(fields[0].decode("utf-8"))
            replica_id = str(info["replica_id"])
            host = str(info["host"])
            port = int(info["port"])
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise wire.ProtocolError(
                f"bad REGISTER payload: {exc}") from None
        record = {
            "replica_id": replica_id, "host": host, "port": port,
            "pid": int(info.get("pid", 0)),
        }
        with self._lock:
            self._replicas[replica_id] = record
            self._lock.notify_all()
        logger.info("replica %s registered at %s:%d",
                    replica_id, host, port)
        return wire.OP_OK, []

    def _op_deregister(self,
                       fields: list[bytes]) -> tuple[int, list[bytes]]:
        self._expect(fields, 1, "DEREGISTER")
        replica_id = fields[0].decode("utf-8", "replace")
        with self._lock:
            self._replicas.pop(replica_id, None)
        logger.info("replica %s deregistered", replica_id)
        return wire.OP_OK, []

    def _op_list(self) -> tuple[int, list[bytes]]:
        with self._lock:
            replicas = sorted(self._replicas.values(),
                              key=lambda r: r["replica_id"])
        return wire.OP_OK, [json.dumps(replicas).encode("utf-8")]

    def wait_for_replicas(self, count: int,
                          timeout: float) -> list[dict[str, Any]]:
        """The registry in registration order, once it holds ``count``
        records or ``timeout`` seconds passed, whichever is first."""
        with self._lock:
            self._lock.wait_for(
                lambda: len(self._replicas) >= count, timeout)
            return list(self._replicas.values())

    def _op_stats(self) -> tuple[int, list[bytes]]:
        with self._lock:
            payload = {
                **self.stats,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_seconds": self.ttl_seconds,
                "replicas": len(self._replicas),
            }
        return wire.OP_OK, [json.dumps(payload).encode("utf-8")]

    # -- introspection (in-process callers/tests) -------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {**self.stats, "entries": len(self._entries),
                    "replicas": len(self._replicas)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def run_cache_server(host: str, port: int) -> int:
    """Blocking CLI entry point: serve until SIGTERM/SIGINT."""
    import signal

    server = SharedCacheServer(host=host, port=port).start()
    stop = threading.Event()

    def _signalled(signum: int, frame: Any) -> None:
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _signalled)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    print(f"cache server listening on {server.host}:{server.port}",
          flush=True)
    stop.wait()
    server.stop()
    print("cache server stopped", flush=True)
    return 0
