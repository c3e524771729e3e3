"""The query-serving subsystem: cache, admission control, metrics.

Wraps a built :class:`~repro.api.system.CovidKG` in a
:class:`~repro.serve.service.QueryService` that answers the web front
end's five request shapes (title/abstract, all-fields, table, KG, and
meta-profile) concurrently, with result caching, bounded admission, and
per-request observability.
"""

from repro.serve.admission import ReadWriteLock, WorkerPool
from repro.serve.cache import (
    CacheStats,
    Flight,
    ResultCache,
    canonical_params,
    canonical_text,
    request_key,
)
from repro.serve.metrics import (
    GatewayMetrics,
    LatencyHistogram,
    ServiceMetrics,
)
from repro.serve.service import (
    ENGINES,
    GatewayConfig,
    QueryService,
    ServeConfig,
    ServedResult,
)

__all__ = [
    "ENGINES",
    "CacheStats",
    "Flight",
    "GatewayConfig",
    "GatewayMetrics",
    "LatencyHistogram",
    "QueryService",
    "ReadWriteLock",
    "ResultCache",
    "ServeConfig",
    "ServedResult",
    "ServiceMetrics",
    "WorkerPool",
    "canonical_params",
    "canonical_text",
    "request_key",
]
