"""The gateway's access-log contract.

One line per response the gateway writes — hits, misses, 404s,
malformed requests and both kinds of 503 included — each byte for byte
what ``logging``'s ``%(asctime)s %(name)s %(message)s`` format renders
for a ``repro.gateway.access`` record, and every one of them written by
the time :meth:`BackgroundGateway.stop` returns.  Lines are read after
``stop()`` or an explicit flush, never after a sleep.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import logging
import re
import threading
import time
from unittest import mock

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.gateway import BackgroundGateway, GatewayClient
from repro.gateway.server import ACCESS_LOG_BUFFER_CHARS, _AccessLog
from repro.serve.service import GatewayConfig, QueryService, ServeConfig
from tests.raw_client import RawGatewayClient

_FORMATTER = logging.Formatter("%(asctime)s %(name)s %(message)s")
_MESSAGE = ("request_id=%s peer=%s method=%s target=%s endpoint=%s "
            "status=%d ms=%.2f")
_LINE = re.compile(
    r"(?P<date>\d{4}-\d\d-\d\d \d\d:\d\d:\d\d),(?P<msecs>\d{3}) "
    r"repro\.gateway\.access request_id=(?P<request_id>\S+) "
    r"peer=(?P<peer>\S+) method=(?P<method>\S+) target=(?P<target>\S+) "
    r"endpoint=(?P<endpoint>\S+) status=(?P<status>\d+) "
    r"ms=(?P<ms>\d+\.\d\d)")


def _rendered(created: float, message: str, *args) -> str:
    """What ``logging`` wrote for an access record made at ``created``."""
    with mock.patch("time.time", return_value=created), \
            mock.patch("time.time_ns", return_value=round(created * 1e9)):
        record = logging.LogRecord("repro.gateway.access", logging.INFO,
                                   __file__, 0, message, args, None)
    return _FORMATTER.format(record)


def _parse(line: str) -> dict:
    """Split a line into its fields, checking it against ``logging``."""
    match = _LINE.fullmatch(line)
    assert match, line
    fields = match.groupdict()
    # Mid-millisecond, so no float rounding can move it across one.
    created = time.mktime(time.strptime(fields["date"],
                                        "%Y-%m-%d %H:%M:%S")) + \
        (int(fields["msecs"]) + 0.5) / 1000
    assert line == _rendered(
        created, _MESSAGE, fields["request_id"], fields["peer"],
        fields["method"], fields["target"], fields["endpoint"],
        int(fields["status"]), float(fields["ms"]))
    fields["created"] = created
    return fields


def _gateway(service, stream, config=None) -> BackgroundGateway:
    """A gateway whose access log writes to ``stream``.

    The log binds whatever ``sys.stderr`` is when the gateway is made,
    as a ``logging.StreamHandler`` does.
    """
    with contextlib.redirect_stderr(stream):
        return BackgroundGateway(service, config or GatewayConfig(port=0))


def _logged(stream) -> dict[str, dict]:
    lines = stream.getvalue().splitlines()
    by_id = {}
    for line in lines:
        fields = _parse(line)
        assert fields["request_id"] not in by_id, "two lines, one response"
        by_id[fields["request_id"]] = fields
    return by_id


@pytest.fixture(scope="module")
def system():
    kg = CovidKG(CovidKGConfig(num_shards=2))
    kg.ingest(CorpusGenerator(GeneratorConfig(
        seed=61, papers_per_week=15, tables_per_paper=(1, 2),
    )).papers(16))
    return kg


class TestOneLinePerResponse:
    def test_hit_miss_404_and_malformed(self, system):
        stream = io.StringIO()
        with QueryService(system, ServeConfig(num_workers=1)) as service:
            gw = _gateway(service, stream).start()
            try:
                before = time.time()
                with GatewayClient("127.0.0.1", gw.port) as cl:
                    miss = cl.search("all_fields", query="vaccine")
                    hit = cl.search("all_fields", query="vaccine")
                    missing = cl.get("/v1/nope")
                with RawGatewayClient("127.0.0.1", gw.port) as raw:
                    malformed = raw.send_raw(b"NONSENSE\r\n\r\n")
                after = time.time()
            finally:
                gw.stop()
        assert not miss.json()["cached"] and hit.json()["cached"]
        responses = {
            miss.request_id: ("GET", "/v1/search/all_fields?query=vaccine",
                              "search.all_fields", 200),
            hit.request_id: ("GET", "/v1/search/all_fields?query=vaccine",
                             "search.all_fields", 200),
            missing.request_id: ("GET", "/v1/nope", "unknown", 404),
            malformed.request_id: ("-", "-", "malformed", 400),
        }
        assert malformed.status == 400 and missing.status == 404
        logged = _logged(stream)
        assert set(logged) == set(responses)
        for request_id, (method, target, endpoint, status) in \
                responses.items():
            fields = logged[request_id]
            assert (fields["method"], fields["target"],
                    fields["endpoint"], int(fields["status"])) == \
                (method, target, endpoint, status)
            assert re.fullmatch(r"127\.0\.0\.1:\d+", fields["peer"])
            # Stamped while the requests ran (TestBatching pins the
            # stamp to the moment the line is added).
            assert before - 0.001 <= fields["created"] <= after + 0.5
        # One connection, one peer text.
        assert logged[miss.request_id]["peer"] == \
            logged[hit.request_id]["peer"] == \
            logged[missing.request_id]["peer"]

    def test_admission_shed(self, system):
        started, release = threading.Event(), threading.Event()
        stream = io.StringIO()
        with QueryService(system, ServeConfig(num_workers=1,
                                              max_queue=1)) as service:
            search = service._dispatch["all_fields"]

            def dispatch(query, page=1):
                if query == "hold":
                    started.set()
                    release.wait(timeout=30.0)
                return search(query, page=page)

            service._dispatch["all_fields"] = dispatch
            submit, admitted = service._pool.submit, threading.Semaphore(0)

            def counted_submit(*args, **kwargs):
                future = submit(*args, **kwargs)
                admitted.release()
                return future

            service._pool.submit = counted_submit
            gw = _gateway(service, stream).start()
            try:
                with RawGatewayClient("127.0.0.1", gw.port) as holder, \
                        RawGatewayClient("127.0.0.1", gw.port) as cl, \
                        RawGatewayClient("127.0.0.1", gw.port) as shedder:
                    holder.send_raw_nowait(
                        b"GET /v1/search/all_fields?query=hold HTTP/1.1"
                        b"\r\nHost: x\r\n\r\n")
                    assert started.wait(timeout=30.0)
                    assert admitted.acquire(timeout=30.0)
                    # The worker is busy: this one queues ...
                    cl.send_raw_nowait(
                        b"GET /v1/search/all_fields?query=queued HTTP/1.1"
                        b"\r\nHost: x\r\n\r\n")
                    assert admitted.acquire(timeout=30.0)
                    # ... and the next is shed at admission.
                    shed = shedder.send_raw(
                        b"GET /v1/search/all_fields?query=shed HTTP/1.1"
                        b"\r\nHost: x\r\n\r\n")
                    release.set()
                    queued = cl.read_response()
                    held = holder.read_response()
            finally:
                release.set()
                gw.stop()
        assert [held.status, queued.status, shed.status] == [200, 200, 503]
        assert shed.json()["error"]["code"] == "service_overloaded"
        logged = _logged(stream)
        assert set(logged) == {held.request_id, queued.request_id,
                               shed.request_id}
        line = logged[shed.request_id]
        assert (line["target"], line["endpoint"], line["status"]) == \
            ("/v1/search/all_fields?query=shed", "search.all_fields",
             "503")

    def test_a_request_cancelled_at_the_drain_deadline(self, system):
        started, release = threading.Event(), threading.Event()
        stream = io.StringIO()
        drained = logging.getLogger("repro.gateway")
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter("%(message)s"))
        level = drained.level
        drained.addHandler(handler)
        drained.setLevel(logging.INFO)
        try:
            with QueryService(system, ServeConfig(num_workers=1)) as service:
                search = service._dispatch["all_fields"]

                def dispatch(query, page=1):
                    started.set()
                    release.wait(timeout=30.0)
                    return search(query, page=page)

                service._dispatch["all_fields"] = dispatch
                gw = _gateway(service, stream, GatewayConfig(
                    port=0, drain_seconds=0.2)).start()
                try:
                    with RawGatewayClient("127.0.0.1", gw.port) as cl:
                        cl.send_raw_nowait(
                            b"GET /v1/search/all_fields?query=stuck "
                            b"HTTP/1.1\r\nHost: x\r\n\r\n")
                        assert started.wait(timeout=30.0)
                        gw.stop()  # the miss outlives the drain deadline
                finally:
                    release.set()
                    gw.stop()
        finally:
            drained.removeHandler(handler)
            drained.setLevel(level)
        snapshot = gw.gateway.metrics.snapshot()
        assert snapshot["requests_inflight"] == 0
        assert snapshot["responses"] == {"499": 1}
        lines = stream.getvalue().splitlines()
        assert lines[-1] == "gateway drained (1 request(s) cancelled)"
        [line] = [_parse(text) for text in lines
                  if " repro.gateway.access " in text]
        assert (line["method"], line["target"], line["endpoint"],
                line["status"]) == \
            ("GET", "/v1/search/all_fields?query=stuck",
             "search.all_fields", "499")

    def test_connection_shed(self, system):
        stream = io.StringIO()
        config = GatewayConfig(port=0, max_connections=1)
        with QueryService(system, ServeConfig(num_workers=1)) as service:
            gw = _gateway(service, stream, config).start()
            try:
                with GatewayClient("127.0.0.1", gw.port) as first:
                    health = first.healthz()  # holds the one slot
                    with GatewayClient("127.0.0.1", gw.port) as second:
                        shed = second.healthz()
            finally:
                gw.stop()
        assert health.status == 200 and shed.status == 503
        assert shed.json()["error"]["code"] == "too_many_connections"
        logged = _logged(stream)
        assert set(logged) == {health.request_id, shed.request_id}
        line = logged[shed.request_id]
        assert (line["method"], line["target"], line["endpoint"],
                line["status"]) == ("-", "-", "connection_shed", "503")
        assert line["peer"] != logged[health.request_id]["peer"]

    def test_access_log_off_writes_nothing(self, system):
        stream = io.StringIO()
        with QueryService(system, ServeConfig(num_workers=1)) as service:
            gw = _gateway(service, stream,
                          GatewayConfig(port=0, access_log=False)).start()
            try:
                with GatewayClient("127.0.0.1", gw.port) as cl:
                    assert cl.healthz().status == 200
            finally:
                gw.stop()
        assert stream.getvalue() == ""


class _CountingStream(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def _access_log(stream) -> _AccessLog:
    with contextlib.redirect_stderr(stream):
        return _AccessLog()


class TestBatching:
    @pytest.mark.parametrize("now", [
        1_700_000_000.0005, 1_700_000_000.4995, 1_700_000_000.9995,
        1_700_000_001.0005, 1_700_003_599.9995, 1_700_003_600.0125,
    ])
    def test_stamp_is_loggings_asctime(self, now):
        log = _access_log(io.StringIO())
        expected = _rendered(now, "m")
        for _ in range(2):  # rendered, then from the cached prefix
            assert f"{log.stamp(now)} repro.gateway.access m" == expected

    def test_a_batch_is_one_write_stamped_per_line(self):
        stream = _CountingStream()
        added = ((1_700_000_000.2505, "a"), (1_700_000_002.7505, "b"))

        async def main():
            log = _access_log(stream)
            for now, message in added:
                with mock.patch("time.time", return_value=now):
                    log.add(message)
            assert stream.writes == 0 and log._timer is not None
            log.flush()
            assert log._timer is None
            log.flush()  # nothing buffered: no write

        asyncio.run(main())
        assert stream.writes == 1
        assert stream.getvalue().splitlines() == [
            _rendered(now, message) for now, message in added]

    def test_the_size_cap_and_close_write_at_once(self):
        stream = _CountingStream()
        big = "x" * (ACCESS_LOG_BUFFER_CHARS // 2)

        async def main():
            log = _access_log(stream)
            log.add(big)
            assert stream.writes == 0
            log.add(big)  # crosses the cap
            assert stream.writes == 1 and log._timer is None
            log.add("before close")
            log.close()
            assert stream.writes == 2
            log.add("after close")  # a drained gateway holds nothing
            assert stream.writes == 3 and log._timer is None

        asyncio.run(main())
        assert [line.split(" repro.gateway.access ")[1] for line in
                stream.getvalue().splitlines()] == \
            [big, big, "before close", "after close"]
