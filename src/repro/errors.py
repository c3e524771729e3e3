"""Exception hierarchy shared by every repro subpackage.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at the API boundary while still distinguishing failure
modes inside the system.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class DocumentError(ReproError):
    """A document is malformed or violates collection constraints."""


class DuplicateKeyError(DocumentError):
    """An insert would violate a unique index (e.g. a duplicate ``_id``)."""


class QueryError(ReproError):
    """A query/filter document is malformed or uses an unknown operator."""


class AggregationError(ReproError):
    """An aggregation pipeline is malformed or a stage failed to evaluate."""


class ShardingError(ReproError):
    """Shard configuration or routing failed."""


class PersistenceError(ReproError):
    """Snapshot/append-log I/O failed or an on-disk image is corrupt."""


class ParseError(ReproError):
    """Raw input (HTML table fragment, paper JSON, query string) is invalid."""


class SchemaError(ReproError):
    """A corpus document does not conform to the CORD-19-style schema."""


class ModelError(ReproError):
    """A machine-learning / deep-learning model was misconfigured or misused."""


class NotFittedError(ModelError):
    """A model method requiring training was called before ``fit``."""


class GraphError(ReproError):
    """A knowledge-graph operation is invalid (unknown node, cycle, ...)."""


class FusionError(GraphError):
    """A subtree could not be fused into the knowledge graph."""


class RegistryError(ReproError):
    """Lookup in the pre-trained model/embedding registry failed."""


class ServiceError(ReproError):
    """The query-serving tier rejected or failed a request."""


class ServiceOverloadedError(ServiceError):
    """The admission queue is full; the request was shed, not queued."""


class DeadlineExceededError(ServiceError):
    """A request's deadline passed before it could be executed."""


class ServiceClosedError(ServiceError):
    """The service has been shut down and accepts no new requests."""


class KGQLError(QueryError):
    """A KGQL graph query is invalid (syntax, unknown variable, ...).

    Derives from :class:`QueryError` so the serving tier's negative
    cache and the gateway's 400 mapping treat a bad graph query exactly
    like a bad search query: deterministic, remembered, never retried.
    """


class KGQLSyntaxError(KGQLError):
    """KGQL source failed to lex/parse.

    Carries the offending position so front ends can render caret
    diagnostics; ``str()`` already includes the caret block::

        unexpected ']' at line 1, column 13
          MATCH (a:"x"]
                      ^
    """

    def __init__(self, message: str, *, line: int = 1, column: int = 1,
                 source_line: str = "") -> None:
        self.brief = message
        self.line = line
        self.column = column
        self.source_line = source_line
        rendered = f"{message} at line {line}, column {column}"
        if source_line:
            caret = " " * (column - 1) + "^"
            rendered = f"{rendered}\n  {source_line}\n  {caret}"
        super().__init__(rendered)


class IngestError(ReproError):
    """The streaming-ingest subsystem failed a batch operation."""


class IngestRejectedError(IngestError):
    """A batch failed the pre-index quality gate; nothing was applied.

    Carries per-document diagnostics so a feed operator can see exactly
    which papers were malformed and why::

        IngestRejectedError("2 of 5 papers rejected", rejects=[...])

    ``rejects`` is a list of ``{"index", "paper_id", "error"}`` dicts.
    The gate is all-or-nothing: one bad paper rejects the whole batch,
    so a partial batch can never reach the WAL or the indexes.
    """

    def __init__(self, message: str,
                 rejects: list[dict] | None = None) -> None:
        super().__init__(message)
        self.rejects = rejects or []


class WalCorruptionError(IngestError):
    """A write-ahead-log segment failed its checksum or framing checks.

    Replay treats a corrupt/truncated *tail* as the crash point and
    recovers everything committed before it; corruption *before* the
    last committed batch raises this instead of silently dropping
    acknowledged data.
    """


class SnapshotNotFoundError(IngestError):
    """``rollback(to)`` named a snapshot that is not retained."""


class GatewayError(ReproError):
    """The HTTP gateway failed a request before it reached the service."""


class BadRequestError(GatewayError):
    """The HTTP request is malformed or carries invalid parameters."""


class PayloadTooLargeError(GatewayError):
    """The HTTP request body exceeds the gateway's configured limit."""
