"""The threaded TCP listener both cluster servers stand on.

:class:`~repro.cluster.router.Router` and
:class:`~repro.cluster.cacheserver.SharedCacheServer` differ only in
what they say on a connection; this shell owns the rest:

* **bind** — ``SO_REUSEADDR`` + ``bind`` + ``listen(128)``; the socket
  is closed if any of them fails, so a busy port leaks nothing;
* **accept** — one ``<name>-accept`` thread hands each connection to a
  ``<name>-conn`` thread, with ``TCP_NODELAY`` and the idle timeout set
  before the server's ``serve(conn)`` runs; the connection is closed
  when ``serve`` returns;
* **stop** — ``shutdown(SHUT_RDWR)`` on the listener and on every live
  connection (a thread blocked in ``accept()`` or ``recv()`` wakes only
  on ``shutdown()``, not ``close()``, on Linux), then join.

The accept loop registers a connection and its thread in the same lock
acquisition that checks the closed flag, and ``stop()`` sets the flag
and takes its snapshot in one acquisition too: a connection is either
in the snapshot (``stop()`` shuts it down) or accepted after the flag
(the accept loop closes it).  Nothing accepted outlives ``stop()``.
"""

from __future__ import annotations

import signal
import socket
import threading
from typing import Any, Callable


class ThreadedListener:
    """Serve each accepted connection with ``serve(conn)`` on its own
    thread.

    >>> listener = ThreadedListener("echo", lambda conn: None)
    >>> listener.start("127.0.0.1", 0) > 0
    True
    >>> listener.stop()
    >>> listener.closed.is_set()
    True
    """

    def __init__(self, name: str,
                 serve: Callable[[socket.socket], None],
                 idle_timeout: float | None = None) -> None:
        self._name = name
        self._serve = serve
        self._idle_timeout = idle_timeout
        #: Set once by :meth:`stop`; servers wait on it for their own
        #: background loops.
        self.closed = threading.Event()
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: dict[socket.socket, threading.Thread] = {}

    def start(self, host: str, port: int) -> int:
        """Bind ``host:port``, start accepting; return the bound port."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(128)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(sock,),
            name=f"{self._name}-accept", daemon=True)
        self._accept_thread.start()
        return sock.getsockname()[1]

    def stop(self) -> None:
        with self._lock:
            if self.closed.is_set():
                return
            self.closed.set()
            conns = list(self._conns.items())
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        for conn, _ in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for _, thread in conns:
            thread.join(timeout=5.0)

    def _accept_loop(self, sock: socket.socket) -> None:
        while True:
            try:
                conn, _ = sock.accept()
            except OSError:
                return  # listener shut down: stopping
            thread = threading.Thread(
                target=self._run, args=(conn,),
                name=f"{self._name}-conn", daemon=True)
            with self._lock:
                if self.closed.is_set():
                    conn.close()
                    return
                self._conns[conn] = thread
                # Started under the lock so that stop() never joins a
                # thread that has not started.
                thread.start()

    def _run(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self._idle_timeout)
            self._serve(conn)
        finally:
            conn.close()
            with self._lock:
                del self._conns[conn]


def stop_on_signals(stop: threading.Event) -> None:
    """Set ``stop`` on SIGTERM / SIGINT (a blocking CLI entry point)."""

    def _signalled(signum: int, frame: Any) -> None:
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _signalled)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
