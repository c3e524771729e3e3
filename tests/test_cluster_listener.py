"""The listener shell under both cluster servers: bind, accept, stop.

Every case runs against :class:`Router` (HTTP on each connection) and
:class:`SharedCacheServer` (the frame protocol), which bind, accept and
stop the same way.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.cluster.cacheclient import SharedCacheClient
from repro.cluster.cacheserver import SharedCacheServer
from repro.cluster.router import Router, RouterConfig
from repro.gateway import GatewayClient

KINDS = ["router", "cacheserver"]
CLASSES = {"router": Router, "cacheserver": SharedCacheServer}


def _server(kind, port=0):
    if kind == "router":
        return Router([], RouterConfig(port=port))
    return SharedCacheServer(port=port)


def _round_trip(kind, server):
    """One request on a keep-alive connection; the open client."""
    if kind == "router":
        client = GatewayClient("127.0.0.1", server.port, timeout=2.0)
        assert client.request("GET", "/v1/cluster").status == 200
    else:
        client = SharedCacheClient(f"127.0.0.1:{server.port}")
        assert client.put("kg", ("k",), (1,), "v")
    return client


def _socket_fds():
    fds = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{name}").startswith("socket:"):
                fds.add(name)
        except OSError:
            pass  # closed between listdir and readlink
    return fds


def _new_threads(before, name):
    return [thread for thread in threading.enumerate()
            if thread not in before and thread.name == name
            and thread.is_alive()]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts sockets through /proc/self/fd")
@pytest.mark.parametrize("kind", KINDS)
def test_busy_port_raises_and_leaves_no_socket_open(kind):
    holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        holder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        server = _server(kind, holder.getsockname()[1])
        before_fds = _socket_fds()
        before_threads = set(threading.enumerate())
        with pytest.raises(OSError) as excinfo:
            server.start()
        # excinfo keeps the failed frame alive, so a socket that was
        # not closed would still be open here.
        assert _socket_fds() == before_fds, excinfo.value
        assert _new_threads(before_threads, f"{kind}-accept") == []
    finally:
        holder.close()


@pytest.mark.parametrize("kind", KINDS)
def test_stop_wakes_an_idle_keep_alive_connection(kind):
    before = set(threading.enumerate())
    server = _server(kind).start()
    client = _round_trip(kind, server)
    try:
        # The server's connection thread is now parked in recv().
        started = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - started
    finally:
        client.close()
    assert elapsed < 1.0
    assert _new_threads(before, f"{kind}-conn") == []


@pytest.mark.parametrize("kind", KINDS)
def test_port_can_be_bound_again_after_stop(kind):
    server = _server(kind).start()
    port = server.port
    client = _round_trip(kind, server)
    # The server closes its side first, so its end of the connection
    # sits in TIME_WAIT on the port.
    server.stop()
    client.close()
    again = _server(kind, port).start()
    try:
        _round_trip(kind, again).close()
    finally:
        again.stop()


@pytest.mark.parametrize("kind", KINDS)
def test_connection_accepted_while_stop_runs_does_not_outlive_it(
        kind, monkeypatch):
    """stop() lands between accept() and the handler's first line."""
    serve = CLASSES[kind]._serve_connection
    before = set(threading.enumerate())
    stop_seconds = []

    def timed_stop(server):
        started = time.monotonic()
        server.stop()
        stop_seconds.append(time.monotonic() - started)

    def stopped_first(self, conn):
        threading.Thread(target=timed_stop, args=(self,)).start()
        # stop() shuts the listener down right after it sets its
        # closed flag; the accept thread exits on that.
        for thread in _new_threads(before, f"{kind}-accept"):
            thread.join(timeout=5.0)
        serve(self, conn)

    monkeypatch.setattr(CLASSES[kind], "_serve_connection", stopped_first)
    server = _server(kind).start()
    client = socket.create_connection(("127.0.0.1", server.port))
    try:
        deadline = time.monotonic() + 10.0
        while not stop_seconds and time.monotonic() < deadline:
            time.sleep(0.01)
        assert stop_seconds and stop_seconds[0] < 1.0, stop_seconds
        client.settimeout(2.0)
        assert client.recv(1) == b""
    finally:
        client.close()
        server.stop()
