"""Per-request observability: counters and latency histograms.

``QueryService.stats()`` is built from these primitives.  The histogram
keeps a bounded reservoir of recent samples (plus exact count/sum/min/
max), so percentile queries stay O(reservoir) regardless of how many
requests the service has handled.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any


#: Percentiles ``snapshot()`` reports, as (label, fraction).
REPORTED_PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class LatencyHistogram:
    """Bounded-memory latency tracker; :meth:`snapshot` reports it.

    Records seconds; reports milliseconds.  The last ``capacity``
    samples form the percentile reservoir — enough resolution for a
    serving dashboard without unbounded growth.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._samples: list[float] = []
        self._cursor = 0
        self.count = 0
        self.total = 0.0
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total += seconds
            if self.max is None or seconds > self.max:
                self.max = seconds
            if len(self._samples) < self.capacity:
                self._samples.append(seconds)
            else:  # ring buffer: overwrite the oldest sample
                self._samples[self._cursor] = seconds
                self._cursor = (self._cursor + 1) % self.capacity

    def snapshot(self) -> dict[str, Any]:
        """Counts and millisecond latency figures for dashboards.

        All fields are read under one lock acquisition, so the snapshot
        is internally consistent — a concurrent ``observe`` can never
        produce a count that disagrees with the mean or max.
        """
        with self._lock:
            count = self.count
            total = self.total
            maximum = self.max
            ordered = sorted(self._samples)
        result: dict[str, Any] = {"count": count}
        result["mean_ms"] = (total / count) * 1000.0 if count else None
        for label, fraction in REPORTED_PERCENTILES:
            if ordered:
                rank = min(len(ordered) - 1,
                           max(0, round(fraction * (len(ordered) - 1))))
                result[f"{label}_ms"] = ordered[rank] * 1000.0
            else:
                result[f"{label}_ms"] = None
        result["max_ms"] = None if maximum is None else maximum * 1000.0
        return result


class GatewayMetrics:
    """Connection gauges and per-endpoint counters for the HTTP gateway.

    The gateway's event loop is single-threaded, but ``/v1/stats`` may
    be rendered while a drain poll or a CLI thread reads the same
    counters, so every update and the snapshot go through one lock —
    the same consistency rule :class:`ServiceMetrics` follows.
    """

    def __init__(self, histogram_capacity: int = 2048) -> None:
        self._lock = threading.Lock()
        self.connections_open = 0
        self.connections_peak = 0
        self.connections_total = 0
        #: Connections refused at the global cap (503 + ``Retry-After``).
        self.connections_shed = 0
        self.requests_inflight = 0
        self.requests: Counter[str] = Counter()
        self.responses: Counter[int] = Counter()
        self.parse_errors = 0
        self.latency = LatencyHistogram(histogram_capacity)

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_open += 1
            self.connections_total += 1
            if self.connections_open > self.connections_peak:
                self.connections_peak = self.connections_open

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_open -= 1

    def connection_shed(self) -> None:
        with self._lock:
            self.connections_shed += 1

    def request_started(self, endpoint: str) -> None:
        with self._lock:
            self.requests_inflight += 1
            self.requests[endpoint] += 1

    def request_finished(self, status: int, seconds: float) -> None:
        with self._lock:
            self.requests_inflight -= 1
            self.responses[status] += 1
        self.latency.observe(seconds)

    def request_served(self, endpoint: str, status: int,
                       seconds: float) -> None:
        """:meth:`request_started` and :meth:`request_finished` in one.

        For an answer written whole in the loop turn that read its
        request (the gateway's hit lane): no other reader could have
        seen it in flight.
        """
        with self._lock:
            self.requests[endpoint] += 1
            self.responses[status] += 1
        self.latency.observe(seconds)

    def record_parse_error(self) -> None:
        with self._lock:
            self.parse_errors += 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return self.requests_inflight

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "connections": {
                    "open": self.connections_open,
                    "peak": self.connections_peak,
                    "total": self.connections_total,
                    "shed": self.connections_shed,
                },
                "requests_inflight": self.requests_inflight,
                "requests": dict(self.requests),
                "responses": {str(status): count for status, count
                              in sorted(self.responses.items())},
                "parse_errors": self.parse_errors,
                "latency": self.latency.snapshot(),
            }


class ServiceMetrics:
    """All counters/histograms for one :class:`QueryService`."""

    def __init__(self, histogram_capacity: int = 2048) -> None:
        self._lock = threading.Lock()
        self._histogram_capacity = histogram_capacity
        self.requests: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.shed = 0
        self.deadline_exceeded = 0
        self.collapsed_misses = 0
        self.negative_hits = 0
        self.overall = LatencyHistogram(histogram_capacity)
        self._per_engine: dict[str, LatencyHistogram] = {}

    def record_request(self, engine: str) -> None:
        with self._lock:
            self.requests[engine] += 1

    def record_error(self, engine: str) -> None:
        with self._lock:
            self.errors[engine] += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def record_deadline_exceeded(self) -> None:
        with self._lock:
            self.deadline_exceeded += 1

    def record_collapsed(self) -> None:
        """A miss collapsed onto another request's in-flight computation."""
        with self._lock:
            self.collapsed_misses += 1

    def record_negative_hit(self) -> None:
        """A request answered from the negative (known-failure) cache."""
        with self._lock:
            self.negative_hits += 1

    def record_latency(self, engine: str, seconds: float) -> None:
        self.overall.observe(seconds)
        self.histogram(engine).observe(seconds)

    def record_hit(self, engine: str, seconds: float) -> None:
        """:meth:`record_request` and :meth:`record_latency` in one, for
        an L1 hit: the request and its latency are known at once."""
        with self._lock:
            self.requests[engine] += 1
            histogram = self._histogram(engine)
        self.overall.observe(seconds)
        histogram.observe(seconds)

    def histogram(self, engine: str) -> LatencyHistogram:
        with self._lock:
            return self._histogram(engine)

    def _histogram(self, engine: str) -> LatencyHistogram:
        """``engine``'s histogram, made on first use; hold the lock."""
        histogram = self._per_engine.get(engine)
        if histogram is None:
            histogram = LatencyHistogram(self._histogram_capacity)
            self._per_engine[engine] = histogram
        return histogram

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            requests = dict(self.requests)
            errors = dict(self.errors)
            engines = dict(self._per_engine)
            shed = self.shed
            deadline_exceeded = self.deadline_exceeded
            collapsed_misses = self.collapsed_misses
            negative_hits = self.negative_hits
        return {
            "requests": requests,
            "total_requests": sum(requests.values()),
            "errors": errors,
            "shed": shed,
            "deadline_exceeded": deadline_exceeded,
            "collapsed_misses": collapsed_misses,
            "negative_hits": negative_hits,
            "latency": {
                "overall": self.overall.snapshot(),
                **{name: histogram.snapshot()
                   for name, histogram in sorted(engines.items())},
            },
        }
