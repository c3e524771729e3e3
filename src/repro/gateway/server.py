"""The asyncio HTTP front end over one :class:`QueryService`.

Architecture — a non-blocking I/O tier in front of a bounded worker
tier, the shape production serving stacks use:

* the **event loop** owns every socket and never computes an answer:
  a parsed request is admitted by :meth:`QueryService.submit` (cache
  claim, admission queue — both O(1) bookkeeping), so admission
  control and single-flight caching apply unchanged behind the
  gateway.  An
  answer that is ready once admission returns — an L1 hit, a replayed
  failure, a validation error, a local endpoint — is a finished
  :class:`Response` then and there; a miss is a worker-pool future
  awaited by a handler task via ``asyncio.wrap_future``;
* each connection runs a **reader/writer pair**: the reader parses
  pipelined requests and queues their answers onto a bounded queue
  (``max_inflight_per_connection`` — when it fills, the reader simply
  stops consuming the socket and TCP pushes back on the client); the
  writer flushes responses strictly in request order, as HTTP/1.1
  requires.  The **inline lane**: a ready answer with nothing
  outstanding ahead of it on its connection is written by the reader
  itself, in the loop turn that read the request;
* one **idle watchdog** timer per connection closes it quietly once
  the reader has waited ``idle_timeout_seconds`` for a request head
  (an idle keep-alive client, or a head that stalled half-sent);
* **overload degrades loudly, never silently**: connections past the
  global cap get ``503`` + ``Retry-After``; admission-queue sheds
  surface as per-request ``503`` bodies; a lapsed ``timeout_ms``
  deadline is a ``504``.  No path leaves a connection hanging without
  a response;
* **graceful drain**: stop accepting, let in-flight requests finish
  inside ``drain_seconds``, then cancel what remains (idle keep-alive
  readers included).
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import os
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
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
    encode_served,
    encode_value,
    error_payload,
    error_response,
    render_prometheus,
    resolve,
    timeout_seconds,
)
from repro.serve.metrics import GatewayMetrics
from repro.serve.service import GatewayConfig, QueryService, ServedResult

logger = logging.getLogger("repro.gateway")
access_logger = logging.getLogger("repro.gateway.access")

#: ``Retry-After`` value (seconds) sent with connection-cap and
#: overload 503s.
RETRY_AFTER_SECONDS = 1


@dataclass
class _Pending:
    """One admitted request waiting for its in-order response slot."""

    #: The finished response, or the handler task that will return it.
    answer: "Response | asyncio.Task[Response]"
    request: Request | None  # None for protocol errors (no valid request)
    request_id: str
    endpoint: str
    started: float
    keep_alive: bool
    head_only: bool


class _Connection:
    """What one connection's reader, writer and idle watchdog share."""

    __slots__ = ("reader", "writer", "pending", "outstanding", "inlined",
                 "broken", "waiting_since", "idle_expired", "watchdog")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, max_inflight: int) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: "asyncio.Queue[_Pending | None]" = asyncio.Queue(
            maxsize=max_inflight)
        #: Requests queued for, or held by, the writer.  The reader may
        #: write a response itself only while this is zero.
        self.outstanding = 0
        #: Responses the reader has written itself (the inline lane).
        self.inlined = 0
        #: The client went away; responses are accounted 499, not sent.
        self.broken = False
        #: When the reader began its current wait for a request head.
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
        # readuntil() needs headroom past the header cap so the explicit
        # size check (a clean 400) fires before the stream limit does.
        self._stream_limit = max(self.config.max_header_bytes,
                                 self.config.max_body_bytes) + 4096

    @property
    def draining(self) -> bool:
        return self._draining

    def _next_request_id(self) -> str:
        return f"{os.getpid():x}-{next(self._ids):06x}"

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
        conn = _Connection(reader, writer,
                           self.config.max_inflight_per_connection)
        write_task = asyncio.create_task(self._write_loop(conn))
        self._watch_idle(conn)
        try:
            await self._read_loop(conn)
            # put() can wait on a full queue, but the writer is still
            # consuming, so this always completes.
            await conn.pending.put(None)
            await write_task
        except asyncio.CancelledError:
            # Drain cancelled this connection deliberately; the writer
            # may be parked on a handler that will never finish inside
            # the drain deadline — tear everything down, and complete
            # normally so the streams machinery doesn't log the cancel.
            write_task.cancel()
            self._cancel_queued(conn.pending)
        except BaseException:
            write_task.cancel()
            self._cancel_queued(conn.pending)
            raise
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
        and measures from the moment the reader last began waiting for
        a request head: an idle keep-alive connection and a head that
        stalled half-sent both end the read loop quietly — no 400 — and
        whatever is still outstanding is answered before the close.
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
        response = error_payload(
            503, "too_many_connections",
            "connection limit reached; retry shortly", request_id,
        )
        response.headers["Retry-After"] = str(RETRY_AFTER_SECONDS)
        try:
            writer.write(build_response(response, request_id=request_id,
                                        keep_alive=False))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        """Parse pipelined requests; answer or queue each in order."""
        reader = conn.reader
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
            endpoint = resolve(request.path)
            name = endpoint.name if endpoint is not None else "unknown"
            request_id = self._next_request_id()
            started = time.monotonic()
            self.metrics.request_started(name)
            answer = self._admit(endpoint, request, request_id)
            if not isinstance(answer, Response):
                answer = asyncio.create_task(
                    self._await_served(answer, request_id))
            await self._respond(conn, _Pending(
                answer=answer, request=request, request_id=request_id,
                endpoint=name, started=started,
                keep_alive=request.keep_alive,
                head_only=request.method == "HEAD",
            ))
            if not request.keep_alive:
                return

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

    @staticmethod
    def _cancel_queued(
            pending: "asyncio.Queue[_Pending | None]") -> None:
        """Cancel handler tasks still waiting for their response slot."""
        while True:
            try:
                item = pending.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is not None and isinstance(item.answer, asyncio.Task):
                item.answer.cancel()

    async def _reject(self, conn: _Connection,
                      exc: BaseException) -> None:
        """Answer a malformed request in-order, then close."""
        request_id = self._next_request_id()
        response = error_response(exc, request_id)
        response.close = True
        self.metrics.request_started("malformed")
        await self._respond(conn, _Pending(
            answer=response, request=None, request_id=request_id,
            endpoint="malformed", started=time.monotonic(),
            keep_alive=False, head_only=False,
        ))

    async def _respond(self, conn: _Connection, item: _Pending) -> None:
        """Write ``item``'s answer now if HTTP/1.1 order allows, else queue.

        The inline lane: a ready response with nothing outstanding ahead
        of it goes out from the reader in this loop turn — no handler
        task, no queue hop, no writer wake-up.  Anything else waits its
        turn behind the writer.
        """
        if conn.outstanding == 0 and isinstance(item.answer, Response):
            await self._send(conn, item, item.answer)
            conn.inlined += 1
            if conn.inlined % self.config.max_inflight_per_connection == 0:
                # A pipelined burst of ready answers never suspends the
                # reader; hand the loop to the other connections as
                # often as the queue's cap used to make it.
                await asyncio.sleep(0)
            return
        conn.outstanding += 1
        # Bounded: blocks when max_inflight_per_connection answers are
        # outstanding, which stops socket reads — backpressure reaches
        # the client as TCP flow control, not lost requests.
        await conn.pending.put(item)

    async def _write_loop(self, conn: _Connection) -> None:
        """Flush responses in request order until the reader signals EOF.

        Runs to the sentinel even when the socket breaks: every admitted
        task must be awaited (so service work quiesces) and accounted
        (so the in-flight gauge returns to zero).
        """
        while True:
            item = await conn.pending.get()
            if item is None:
                return
            answer = item.answer
            if not isinstance(answer, Response):
                answer = await answer  # handler never raises
            await self._send(conn, item, answer)
            conn.outstanding -= 1

    async def _send(self, conn: _Connection, item: _Pending,
                    response: Response) -> None:
        """Put one response on the wire and account for the request."""
        status = response.status
        if not conn.broken:
            data = build_response(
                response,
                request_id=item.request_id,
                keep_alive=(item.keep_alive and not response.close
                            and not self._draining),
                head_only=item.head_only,
            )
            try:
                conn.writer.write(data)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                conn.broken = True
        if conn.broken:
            status = 499  # client closed before the response went out
        elapsed = time.monotonic() - item.started
        self.metrics.request_finished(status, elapsed)
        self._access_log(item, status, elapsed, conn.writer)

    def _access_log(self, item: _Pending, status: int, elapsed: float,
                    writer: asyncio.StreamWriter) -> None:
        if not self.config.access_log:
            return
        peer = writer.get_extra_info("peername")
        peer_text = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) \
            else "-"
        method = item.request.method if item.request else "-"
        target = item.request.target if item.request else "-"
        access_logger.info(
            "request_id=%s peer=%s method=%s target=%s endpoint=%s "
            "status=%d ms=%.2f",
            item.request_id, peer_text, method, target, item.endpoint,
            status, elapsed * 1000.0,
        )

    # -- request handling --------------------------------------------------

    def _admit(self, endpoint: Endpoint | None, request: Request,
               request_id: str) -> "Response | Future[ServedResult]":
        """The synchronous half of a request, run by the reader.

        Returns the finished response whenever there is one by the time
        admission returns — no route, a local endpoint, a validation or
        admission failure, an L1 hit, a replayed negative entry — and
        otherwise the pool future a handler task will await.  Every
        failure becomes a response.
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
                future = self.service.submit_ingest(
                    timeout_seconds=timeout, **params)
            else:
                params = endpoint.params(request)
                timeout = timeout_seconds(request)
                future = self.service.submit(
                    endpoint.engine, timeout_seconds=timeout, **params)
            if not future.done():
                return future
            # Resolved at admission: skip the task and wrap_future,
            # whose wake-up crosses the loop's self-pipe even for a
            # future that is already done.  (timeout=0: this runs on
            # the loop and must poll, never wait.)
            served = future.result(timeout=0)
            wire = served.wire
            if wire is None:
                wire = encode_value(served.value)
                if served.cached and not served.shared:
                    # First L1 hit of this entry: later hits reuse the
                    # bytes for as long as the entry lives.
                    self.service.attach_wire(served, params, wire)
            return Response(body=encode_served(served, request_id, wire))
        except Exception as exc:  # noqa: BLE001 - becomes the body
            return self._error(exc, request_id)

    async def _await_served(self, future: "Future[ServedResult]",
                            request_id: str) -> Response:
        """The handler task of a miss: await the pool, encode the page."""
        try:
            served = await asyncio.wrap_future(future)
            return Response(body=encode_served(
                served, request_id, encode_value(served.value)))
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
    readiness can line-buffer), then serves until a termination signal
    arrives and drains gracefully.  ``ready``, when given, is called
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
