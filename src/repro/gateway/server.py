"""The asyncio HTTP front end over one :class:`QueryService`.

Architecture — a non-blocking I/O tier in front of a bounded worker
tier, the shape production serving stacks use:

* the **event loop** owns every socket and never computes an answer:
  a parsed request is admitted by :meth:`QueryService.admit` (cache
  claim, admission queue — both O(1) bookkeeping), so admission
  control and single-flight caching apply unchanged behind the
  gateway.  An answer that is ready once admission returns — an L1
  hit (the claim's ``ServedResult`` itself, no ``Future``), a
  replayed failure, a validation error, a local endpoint — is a
  finished :class:`Response` then and there; a miss is a worker-pool
  future the connection awaits in place via ``asyncio.wrap_future``;
* each connection is **one coroutine holding one request at a time**,
  as the cluster router's thread per connection is: read a request,
  admit it, await a miss, write the answer, read the next.  Pipelined
  requests are answered strictly in request order, as HTTP/1.1
  requires, and wait unread in the socket meanwhile, so a client that
  pipelines ahead is pushed back by TCP flow control.  The **hit
  lane**: a ready answer is written in the loop turn that read its
  request, and every ``ANSWERS_PER_YIELD``-th answer hands the loop to
  the other connections once.  A bodiless GET / HEAD read target
  answered at admission is remembered parsed (params, cache key, own
  ``timeout_ms``; at most the L1's ``max_entries`` targets), so its
  repeats skip the parse, and an answer that leaves whole in that turn
  updates the gateway's and the service's counters in one call each;
* one **idle watchdog** timer per connection closes it quietly once
  it has waited ``idle_timeout_seconds`` for a request head
  (an idle keep-alive client, or a head that stalled half-sent);
* **overload degrades loudly, never silently**: connections past the
  global cap get ``503`` + ``Retry-After``; admission-queue sheds
  surface as per-request ``503`` bodies; a lapsed ``timeout_ms``
  deadline is a ``504``.  No path leaves a connection hanging without
  a response;
* **graceful drain**: stop accepting, let in-flight requests finish
  inside ``drain_seconds``, then cancel what remains (idle keep-alive
  connections included; a cancelled request is accounted ``499``);
* **one access-log line per response**, buffered on the loop and
  written to stderr in one batch per ``ACCESS_LOG_FLUSH_SECONDS``
  (see :class:`_AccessLog`).
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import os
import signal
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any

from repro.errors import (
    BadRequestError,
    PayloadTooLargeError,
    ServiceOverloadedError,
)
from repro.gateway.http import (
    HEAD_TERMINATOR,
    Request,
    Response,
    build_response,
    parse_request_head,
)
from repro.gateway.routes import (
    Endpoint,
    ReadRoute,
    encode_value,
    error_payload,
    error_response,
    read_route,
    render_prometheus,
    resolve,
    served_response,
    timeout_seconds,
)
from repro.serve.metrics import GatewayMetrics
from repro.serve.service import GatewayConfig, QueryService, ServedResult

logger = logging.getLogger("repro.gateway")

#: ``Retry-After`` value (seconds) sent with connection-cap and
#: overload 503s.
RETRY_AFTER_SECONDS = 1

#: A buffered access-log line reaches stderr at most this long after
#: the first line of its batch (nginx's ``access_log ... flush=``).
ACCESS_LOG_FLUSH_SECONDS = 0.1

#: ... or as soon as the batch holds this many characters.
ACCESS_LOG_BUFFER_CHARS = 64 * 1024

#: A connection hands the event loop to the others once per this many
#: answers: a pipelined burst of ready answers never suspends it
#: otherwise.
ANSWERS_PER_YIELD = 8


class _AccessLog:
    """The gateway's access-log lines, written to stderr in batches.

    Each line is byte for byte what ``logging``'s ``%(asctime)s
    %(name)s %(message)s`` format (the served processes'
    ``basicConfig``) rendered for the ``repro.gateway.access`` logger,
    stamped when the line is added, not when it is written.  A batch is
    one ``write`` + ``flush`` to the stream that was ``sys.stderr`` when
    the log was made (as a ``logging.StreamHandler`` binds it):
    ``ACCESS_LOG_FLUSH_SECONDS`` after its first line, at
    ``ACCESS_LOG_BUFFER_CHARS``, or on :meth:`close` (the end of a
    drain; later lines are written as they come).  A SIGKILL loses at
    most one flush window of lines.

    Loop-thread only, so no lock.
    """

    __slots__ = ("_stream", "_lines", "_chars", "_timer", "_closed",
                 "_second", "_prefix")

    def __init__(self) -> None:
        self._stream = sys.stderr
        self._lines: list[str] = []
        self._chars = 0
        self._timer: asyncio.TimerHandle | None = None
        self._closed = False
        #: The whole second ``_prefix`` renders.
        self._second = -1
        self._prefix = ""

    def stamp(self, now: float) -> str:
        """``logging``'s ``%(asctime)s`` for a record created at ``now``."""
        second = int(now)
        if second != self._second:
            self._second = second
            self._prefix = time.strftime("%Y-%m-%d %H:%M:%S",
                                         time.localtime(second))
        return f"{self._prefix},{int((now - second) * 1000):03d}"

    def add(self, message: str) -> None:
        line = f"{self.stamp(time.time())} repro.gateway.access " \
            f"{message}\n"
        self._lines.append(line)
        self._chars += len(line)
        if self._closed or self._chars >= ACCESS_LOG_BUFFER_CHARS:
            self.flush()
        elif self._timer is None:
            self._timer = asyncio.get_running_loop().call_later(
                ACCESS_LOG_FLUSH_SECONDS, self.flush)

    def flush(self) -> None:
        """Write the batch now.

        The timer calls this, and REP208 does not follow ``call_later``
        callbacks, so it does nothing but the write (DESIGN.md §6).
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._lines:
            return
        batch = "".join(self._lines)
        self._lines = []
        self._chars = 0
        try:
            self._stream.write(batch)
            self._stream.flush()
        except (OSError, ValueError):
            # A stream that cannot take the batch (full disk, closed)
            # loses it; it never fails the request that triggered it.
            pass

    def close(self) -> None:
        self._closed = True
        self.flush()


def _peer_text(writer: asyncio.StreamWriter) -> str:
    peer = writer.get_extra_info("peername")
    return f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else "-"


class _Connection:
    """What one connection's request loop and idle watchdog share."""

    __slots__ = ("reader", "writer", "peer", "waiting_since",
                 "idle_expired", "watchdog")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        #: ``host:port`` of the client, for the access log.
        self.peer = _peer_text(writer)
        #: When the loop began its current wait for a request head.
        self.waiting_since: float | None = None
        self.idle_expired = False
        self.watchdog: asyncio.TimerHandle | None = None


class Gateway:
    """Serve one :class:`QueryService` over HTTP/1.1 keep-alive.

    Create it on (or before) the event loop that will run it; ``start``
    binds the socket, ``drain`` shuts down gracefully.  The CLI wraps
    this in :func:`run_gateway`; tests and benchmarks use
    :class:`BackgroundGateway` to host one on a side thread.
    """

    def __init__(self, service: QueryService,
                 config: GatewayConfig | None = None) -> None:
        self.service = service
        self.config = config or service.config.gateway or GatewayConfig()
        self.metrics = GatewayMetrics()
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._conn_tasks: set[asyncio.Task] = set()
        self._ids = itertools.count(1)
        self._id_prefix = f"{os.getpid():x}-"
        #: The hit lane's memo: request target -> its parsed
        #: :class:`ReadRoute`, for the bodiless GET / HEAD read targets
        #: answered at admission.  At most the L1's ``max_entries``
        #: targets; the oldest goes first.  Loop-thread only.
        self._memo: OrderedDict[str, ReadRoute] = OrderedDict()
        self._access = _AccessLog()
        # readuntil() needs headroom past the header cap so the explicit
        # size check (a clean 400) fires before the stream limit does.
        self._stream_limit = max(self.config.max_header_bytes,
                                 self.config.max_body_bytes) + 4096

    @property
    def draining(self) -> bool:
        return self._draining

    def _next_request_id(self) -> str:
        return f"{self._id_prefix}{next(self._ids):06x}"

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self._stream_limit,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("gateway listening on %s:%d",
                    self.config.host, self.port)

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, then cancel the rest."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_seconds
        while self.metrics.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        leftovers = self.metrics.inflight
        if leftovers:
            logger.warning(
                "drain deadline (%.1fs) passed with %d request(s) "
                "in flight; cancelling", self.config.drain_seconds,
                leftovers,
            )
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        self._access.close()
        logger.info("gateway drained (%d request(s) cancelled)",
                    leftovers)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self._draining or \
                self.metrics.connections_open >= \
                self.config.max_connections:
            await self._shed_connection(writer)
            return
        self.metrics.connection_opened()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        conn = _Connection(reader, writer)
        self._watch_idle(conn)
        try:
            await self._serve(conn)
        except asyncio.CancelledError:
            # Drain cancelled this connection deliberately (its request,
            # if any, is accounted); complete normally so the streams
            # machinery doesn't log the cancel.
            pass
        finally:
            if conn.watchdog is not None:
                conn.watchdog.cancel()
            self.metrics.connection_closed()
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()

    def _watch_idle(self, conn: _Connection) -> None:
        """The connection's idle watchdog: one timer, re-armed lazily.

        Fires once per ``idle_timeout_seconds`` (not once per request)
        and measures from the moment the connection last began waiting
        for a request head: an idle keep-alive connection and a head
        that stalled half-sent both end its loop quietly — no 400.  A
        request being answered is not idle, however long it takes.
        """
        timeout = self.config.idle_timeout_seconds
        waited = 0.0 if conn.waiting_since is None else \
            time.monotonic() - conn.waiting_since
        if waited >= timeout:
            conn.idle_expired = True
            # EOF wakes the parked readuntil().  Reading stops first:
            # the stream reader must not be fed after its EOF.
            conn.writer.transport.pause_reading()
            conn.reader.feed_eof()
            return
        conn.watchdog = asyncio.get_running_loop().call_later(
            timeout - waited, self._watch_idle, conn)

    async def _shed_connection(self,
                               writer: asyncio.StreamWriter) -> None:
        """Refuse a connection over the cap: 503 + Retry-After, close."""
        self.metrics.connection_shed()
        request_id = self._next_request_id()
        started = time.monotonic()
        response = error_payload(
            503, "too_many_connections",
            "connection limit reached; retry shortly", request_id,
        )
        response.headers["Retry-After"] = str(RETRY_AFTER_SECONDS)
        status = response.status
        try:
            writer.write(build_response(response, request_id=request_id,
                                        keep_alive=False))
            await writer.drain()
        except (ConnectionError, OSError):
            status = 499
        finally:
            self._access_log(_peer_text(writer), None, request_id,
                             "connection_shed", status,
                             time.monotonic() - started)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve(self, conn: _Connection) -> None:
        """Answer the connection's requests one at a time, in order."""
        reader = conn.reader
        answered = 0
        while not self._draining:
            try:
                head = await self._read_head(conn)
            except asyncio.IncompleteReadError as exc:
                if exc.partial and not conn.idle_expired:
                    await self._reject(conn, BadRequestError(
                        "connection closed mid-request head"))
                return
            except asyncio.LimitOverrunError:
                self.metrics.record_parse_error()
                await self._reject(conn, BadRequestError(
                    f"request head exceeds the "
                    f"{self.config.max_header_bytes}-byte limit"))
                return
            except (ConnectionError, OSError):
                return
            try:
                request = parse_request_head(
                    head, self.config.max_header_bytes)
                route = None if request.method == "POST" else \
                    self._memo.get(request.target)
                # Reading the path splits the target: a target
                # urlsplit refuses is a malformed request like any other.
                endpoint = route.endpoint if route is not None \
                    else resolve(request.path)
                request.body = await self._read_body(reader, request)
            except BadRequestError as exc:
                self.metrics.record_parse_error()
                await self._reject(conn, exc)
                return
            except PayloadTooLargeError as exc:
                await self._reject(conn, exc)
                return
            except (asyncio.IncompleteReadError, ConnectionError,
                    OSError):
                return
            name = endpoint.name if endpoint is not None else "unknown"
            request_id = self._next_request_id()
            started = time.monotonic()
            if route is None or request.body:
                self.metrics.request_started(name)
                answer = self._admit(endpoint, request, request_id)
                counted = True
            else:
                # The hit lane: a target answered at admission before
                # is not parsed again, and an answer ready now is
                # counted when it goes out.
                answer = self._admit_read(route, request, request_id)
                counted = not isinstance(answer, ServedResult)
                if counted:
                    self.metrics.request_started(name)
            if not await self._send(conn, request, request_id, name,
                                    started, answer, counted=counted) \
                    or not request.keep_alive:
                return
            answered += 1
            if answered % ANSWERS_PER_YIELD == 0:
                await asyncio.sleep(0)

    @staticmethod
    async def _read_head(conn: _Connection) -> bytes:
        """Wait for the next request head, on the idle watchdog's clock."""
        conn.waiting_since = time.monotonic()
        try:
            return await conn.reader.readuntil(HEAD_TERMINATOR)
        finally:
            conn.waiting_since = None

    async def _read_body(self, reader: asyncio.StreamReader,
                         request: Request) -> bytes:
        length = request.content_length
        if length == 0:
            return b""
        if length > self.config.max_body_bytes:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit"
            )
        return await reader.readexactly(length)

    async def _reject(self, conn: _Connection,
                      exc: BaseException) -> None:
        """Answer a malformed request, then close."""
        request_id = self._next_request_id()
        self.metrics.request_started("malformed")
        await self._send(conn, None, request_id, "malformed",
                         time.monotonic(), error_response(exc, request_id))

    async def _send(self, conn: _Connection, request: Request | None,
                    request_id: str, endpoint: str, started: float,
                    answer: "Response | ServedResult | Future[ServedResult]",
                    *, counted: bool = True) -> bool:
        """Await a miss's answer, put it on the wire, account for it.

        Returns whether the response went out.  One that did not — the
        client went away, or the drain deadline cancelled the request
        first — is accounted ``499``.  ``counted`` says whether the
        request was already counted started; if not, an answer that
        leaves whole with this write is counted in one call, and one
        that must wait in ``drain()`` is counted in flight first.
        """
        writer = conn.writer
        sent = False
        try:
            if isinstance(answer, Future):
                answer = await self._await_served(answer, request_id)
            keep_alive = request is not None and request.keep_alive \
                and not self._draining
            head_only = request is not None and request.method == "HEAD"
            if isinstance(answer, ServedResult):
                status = 200
                writer.write(served_response(
                    answer, request_id, keep_alive=keep_alive,
                    head_only=head_only))
            else:
                status = answer.status
                writer.write(build_response(
                    answer, request_id=request_id, keep_alive=keep_alive,
                    head_only=head_only))
            if not counted:
                transport = writer.transport
                if transport.get_write_buffer_size() == 0 and \
                        not transport.is_closing():
                    # Out whole: drain() would return at once.
                    sent = True
                    return True
                # drain() may wait on the client: in flight meanwhile.
                self.metrics.request_started(endpoint)
                counted = True
            await writer.drain()
            sent = True
        except (ConnectionError, OSError):
            pass
        finally:
            if not sent:
                status = 499
            elapsed = time.monotonic() - started
            if counted:
                self.metrics.request_finished(status, elapsed)
            else:
                self.metrics.request_served(endpoint, status, elapsed)
            self._access_log(conn.peer, request, request_id, endpoint,
                             status, elapsed)
        return sent

    def _access_log(self, peer: str, request: Request | None,
                    request_id: str, endpoint: str, status: int,
                    elapsed: float) -> None:
        if not self.config.access_log:
            return
        method, target = (request.method, request.target) if request \
            else ("-", "-")
        self._access.add(
            f"request_id={request_id} peer={peer} method={method} "
            f"target={target} endpoint={endpoint} status={status} "
            f"ms={elapsed * 1000.0:.2f}")

    # -- request handling --------------------------------------------------

    def _admit(self, endpoint: Endpoint | None, request: Request,
               request_id: str
               ) -> "Response | ServedResult | Future[ServedResult]":
        """The synchronous half of a request, run by its connection.

        Returns the finished answer whenever there is one by the time
        admission returns — no route, a local endpoint, a validation or
        admission failure, a replayed negative entry (responses), an L1
        hit (its :class:`ServedResult`) — and otherwise the pool future
        :meth:`_send` awaits.  Every failure becomes a response.  A
        bodiless GET / HEAD read target answered here enters the hit
        lane's memo.
        """
        try:
            if endpoint is None:
                return error_payload(
                    404, "not_found",
                    f"no route for {request.path!r}", request_id,
                )
            if endpoint.engine is None:
                return self._local_endpoint(endpoint, request_id)
            if endpoint.engine == "ingest":
                # Writes ride a dedicated single-worker pool
                # (QueryService.submit_ingest) so a batch commit can
                # never occupy a read slot; reads keep flowing while
                # the WAL fsyncs.
                if request.method != "POST":
                    response = error_payload(
                        405, "method_not_allowed",
                        "ingest requires POST", request_id)
                    response.headers["Allow"] = "POST"
                    return response
                params = endpoint.params(request)
                timeout = timeout_seconds(request)
                return self.service.submit_ingest(
                    timeout_seconds=timeout, **params)
            route = read_route(endpoint, request)
        except Exception as exc:  # noqa: BLE001 - becomes the body
            return self._error(exc, request_id)
        answer = self._admit_read(route, request, request_id)
        if isinstance(answer, ServedResult) and \
                request.method != "POST" and not request.body:
            memo = self._memo
            if len(memo) >= self.service.cache.max_entries:
                memo.popitem(last=False)
            memo[request.target] = route
        return answer

    def _admit_read(self, route: ReadRoute, request: Request,
                    request_id: str
                    ) -> "Response | ServedResult | Future[ServedResult]":
        """Admit a read request whose target parsed into ``route``.

        An answer ready at admission — an L1 hit, or a future already
        resolved — comes back as the :class:`ServedResult` with its
        ``wire`` set; a pending miss as the pool future; every failure
        as a response.
        """
        try:
            served = self.service.admit_keyed(
                route.endpoint.engine, route.key, route.params,
                route.timeout_seconds(request))
            if isinstance(served, Future):
                if not served.done():
                    return served
                # Resolved at admission: skip wrap_future, whose wake-up
                # crosses the loop's self-pipe even for a future that is
                # already done.  (timeout=0: this runs on the loop and
                # must poll, never wait.)
                served = served.result(timeout=0)
                served.wire = encode_value(served.value)
            elif served.wire is None:
                # An L1 entry's first hit: later hits reuse the bytes
                # for as long as the entry lives.
                served.wire = encode_value(served.value)
                self.service.attach_wire(served, route.params, served.wire)
            return served
        except Exception as exc:  # noqa: BLE001 - becomes the body
            return self._error(exc, request_id)

    async def _await_served(self, future: "Future[ServedResult]",
                            request_id: str) -> "Response | ServedResult":
        """A miss: await the pool in place, encode the page."""
        try:
            served = await asyncio.wrap_future(future)
            served.wire = encode_value(served.value)
            return served
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - becomes the body
            return self._error(exc, request_id)

    def _error(self, exc: BaseException, request_id: str) -> Response:
        response = error_response(exc, request_id)
        if isinstance(exc, ServiceOverloadedError):
            response.headers["Retry-After"] = str(RETRY_AFTER_SECONDS)
        return response

    def _local_endpoint(self, endpoint: Endpoint,
                        request_id: str) -> Response:
        """Endpoints answered on the loop without touching the pool."""
        if endpoint.name == "healthz":
            if self._draining:
                return Response(status=503,
                                payload={"status": "draining"},
                                close=True)
            # Cheap lock-free attribute reads (QueryService.health) —
            # this runs on the event loop and the cluster router probes
            # it continuously, so it must never wait on the data lock.
            return Response(payload={"status": "ok",
                                     **self.service.health()})
        if endpoint.name == "stats":
            return Response(payload={
                "gateway": self.metrics.snapshot(),
                "service": self.service.stats(),
            })
        # metrics: Prometheus text exposition.
        text = render_prometheus(self.service.stats(),
                                 self.metrics.snapshot())
        return Response(
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )


def run_gateway(service: QueryService,
                config: GatewayConfig | None = None,
                ready: Any = None) -> int:
    """Blocking entry point for the CLI: serve until SIGTERM/SIGINT.

    Prints the bound address (flushes, so wrappers waiting for
    readiness can line-buffer: the cluster runner finds its replicas by
    this line, ``runner.READY_LINE``), then serves until a termination
    signal arrives and drains gracefully.  ``ready``, when given, is called
    with the bound port once the socket is listening (used by tests).
    """

    async def _main() -> None:
        gateway = Gateway(service, config)
        await gateway.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / platform without signals
        print(f"gateway listening on "
              f"http://{gateway.config.host}:{gateway.port}",
              flush=True)
        if ready is not None:
            ready(gateway.port)
        await stop.wait()
        print("gateway draining ...", flush=True)
        await gateway.drain()

    asyncio.run(_main())
    print("gateway stopped", flush=True)
    return 0


class BackgroundGateway:
    """Host a :class:`Gateway` on a private loop in a daemon thread.

    The harness tests and benchmarks use to stand a real socket server
    up next to synchronous client code::

        with BackgroundGateway(service) as gw:
            client = GatewayClient("127.0.0.1", gw.port)
            ...

    Exiting the context drains the gateway and joins the thread.
    """

    def __init__(self, service: QueryService,
                 config: GatewayConfig | None = None) -> None:
        if config is None:
            config = service.config.gateway or GatewayConfig(port=0)
        self.gateway = Gateway(service, config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.gateway.port is not None
        return self.gateway.port

    def start(self) -> "BackgroundGateway":
        self._thread = threading.Thread(
            target=self._run, name="gateway-loop", daemon=True)
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._error is not None:
            raise self._error
        if self.gateway.port is None:
            raise RuntimeError("gateway failed to start within 10s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.gateway.start())
            except BaseException as exc:  # noqa: BLE001 - re-raised in start()
                self._error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
            # Drain was scheduled by stop(); run_forever returned after
            # loop.stop() — finish any callbacks it left behind.
            loop.run_until_complete(asyncio.sleep(0))
        finally:
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._loop
        thread = self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        drained = asyncio.run_coroutine_threadsafe(
            self.gateway.drain(), loop)
        try:
            drained.result(timeout=timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundGateway":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
