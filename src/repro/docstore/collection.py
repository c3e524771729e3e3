"""A single-node document collection: inserts, indexed reads, cursors.

The store is insert-only: documents go in through ``insert_one`` /
``insert_many`` and are never updated or deleted in place.  ``find``
returns a :class:`Cursor` with an optional inclusion projection;
ordering and paging are the aggregation pipeline's ``$sort`` /
``$skip`` / ``$limit`` stages (:mod:`repro.docstore.aggregation`).
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterable, Iterator

from repro.docstore.documents import (
    ObjectId,
    deep_copy_document,
    deep_get,
    deep_set,
    document_bytes,
    validate_document,
)
from repro.docstore.indexes import FieldIndex
from repro.docstore.matching import (
    Predicate,
    compile_filter,
    key_constraints,
)
from repro.errors import DuplicateKeyError, QueryError

_MISSING = object()


class Cursor:
    """Result set over a snapshot of matching documents."""

    def __init__(self, documents: list[dict[str, Any]]) -> None:
        self._documents = documents
        self._projection: dict[str, int] | None = None

    def project(self, projection: dict[str, int]) -> "Cursor":
        self._projection = projection
        return self

    def _materialize(self) -> list[dict[str, Any]]:
        if self._projection is None:
            return self._documents
        return [apply_projection(doc, self._projection)
                for doc in self._documents]

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._documents)

    def to_list(self) -> list[dict[str, Any]]:
        return self._materialize()


def is_inclusion(projection: Any) -> bool:
    """True for an inclusion projection: ``{path: 1, ...}``, where
    ``_id`` may also be 0."""
    return isinstance(projection, dict) and all(
        value in (0, 1) if path == "_id" else value == 1
        for path, value in projection.items()
    )


def apply_projection(document: dict[str, Any],
                     projection: dict[str, int]) -> dict[str, Any]:
    """Apply a MongoDB-style inclusion projection.

    The named paths come out in the projection's own order, after
    ``_id`` unless it says ``"_id": 0``; ``{"_id": 1}`` keeps ``_id``
    alone, as in MongoDB, while ``{}`` and ``{"_id": 0}`` name no path
    and keep the whole document (without ``_id`` for the latter).
    Excluding any other path is a :class:`~repro.errors.QueryError`.
    The result shares nothing with ``document``: every kept value is
    deep-copied (``_id`` included), so a caller may pass a stored row.
    """
    if not is_inclusion(projection):
        raise QueryError(f"a projection only includes fields: {projection!r}")
    keep_id = projection.get("_id", 1)
    includes = [path for path in projection if path != "_id"]
    if not includes and not projection.get("_id"):
        result = deep_copy_document(document)
        if not keep_id:
            result.pop("_id", None)
        return result
    result: dict[str, Any] = {}
    if keep_id and "_id" in document:
        result["_id"] = deep_copy_document({"v": document["_id"]})["v"]
    for path in includes:
        value = deep_get(document, path, _MISSING)
        if value is not _MISSING:
            deep_set(result, path, deep_copy_document({"v": value})["v"])
    return result


class Collection:
    """An in-memory document collection with optional indexes.

    Documents receive an ``_id`` (an :class:`ObjectId`) on insert when they
    do not carry one.  Reads return deep copies so callers cannot corrupt
    stored state.  ``scan_count`` tracks how many stored documents each
    query examined — the statistic behind the pipeline-ordering experiment
    (E3).
    """

    def __init__(self, name: str = "collection") -> None:
        self.name = name
        self._documents: dict[Any, dict[str, Any]] = {}
        self._field_indexes: dict[str, FieldIndex] = {}
        self.scan_count = 0
        self._version = 0

    # -- versioning -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter: one step per inserted document.

        Result caches key their entries to this counter: any insert makes
        every previously computed read stale, which the serving tier
        (:mod:`repro.serve`) detects by comparing snapshots.
        """
        return self._version

    def advance_version(self, floor: int) -> None:
        """Raise the version to at least ``floor`` (never lowers it).

        Used when restoring a saved system so a cache keyed against the
        pre-save counters can never alias the reloaded state.
        """
        self._version = max(self._version, floor)

    # -- index management -------------------------------------------------

    def create_index(self, path: str, unique: bool = False) -> FieldIndex:
        """Create (or return) a hash index on a dotted field path."""
        if path in self._field_indexes:
            return self._field_indexes[path]
        index = FieldIndex(path, unique=unique)
        for doc_id, document in self._documents.items():
            index.add(doc_id, document)
        self._field_indexes[path] = index
        return index

    # -- writes ---------------------------------------------------------

    def insert_one(self, document: dict[str, Any]) -> Any:
        """Insert one document; returns its ``_id``."""
        document = deep_copy_document(validate_document(document))
        doc_id = document.setdefault("_id", ObjectId())
        if doc_id in self._documents:
            raise DuplicateKeyError(f"duplicate _id {doc_id!r}")
        added: list[FieldIndex] = []
        try:
            for index in self._field_indexes.values():
                index.add(doc_id, document)  # may raise DuplicateKeyError
                added.append(index)
        except DuplicateKeyError:
            for index in added:
                index.remove(doc_id)
            raise
        self._documents[doc_id] = document
        self._version += 1
        return doc_id

    def insert_many(self, documents: Iterable[dict[str, Any]]) -> list[Any]:
        return [self.insert_one(document) for document in documents]

    # -- reads ---------------------------------------------------------

    def _candidates(self, query: dict[str, Any]) -> Iterable[Any]:
        """Choose the cheapest candidate id set using available indexes."""
        best: set[Any] | None = None
        for path, values in key_constraints(query).items():
            index = self._field_indexes.get(path)
            if index is None:
                continue
            ids = index.lookup(*values)
            if best is None or len(ids) < len(best):
                best = ids
        if best is None:
            return list(self._documents)
        return best

    def scan(self, query: dict[str, Any] | None = None,
             predicate: Predicate | None = None
             ) -> Iterator[dict[str, Any]]:
        """Yield the *stored* documents matching ``query``, uncopied.

        The one read loop under ``find``, ``find_one``, ``count`` and the
        aggregation ``$match`` pushdown: the filter is compiled once
        (so a malformed one raises here, even on an empty collection) —
        or handed in as ``predicate``, ``query`` compiled by a caller
        that scans several collections — candidates come from the
        indexes and every document examined counts into
        ``scan_count``.  The rows are the collection's own state —
        read-only for the caller, who copies whatever it hands on
        (reads copy on the way out, once).
        """
        query = query or {}
        if predicate is None:
            predicate = compile_filter(query)
        return self._scan(self._candidates(query), predicate)

    def _scan(self, candidates: Iterable[Any], predicate: Predicate
              ) -> Iterator[dict[str, Any]]:
        for doc_id in candidates:
            document = self._documents[doc_id]
            self.scan_count += 1
            if predicate(document):
                yield document

    def find(self, query: dict[str, Any] | None = None,
             projection: dict[str, int] | None = None) -> Cursor:
        """All matching documents, as a lazily-shaped :class:`Cursor`."""
        cursor = Cursor(
            [deep_copy_document(document) for document in self.scan(query)]
        )
        if projection is not None:
            cursor.project(projection)
        return cursor

    def find_one(self, query: dict[str, Any] | None = None,
                 projection: dict[str, int] | None = None
                 ) -> dict[str, Any] | None:
        """The first match in scan order, the only document copied."""
        for document in self.scan(query):
            if projection is None:
                return deep_copy_document(document)
            return apply_projection(document, projection)
        return None

    def count(self, query: dict[str, Any] | None = None) -> int:
        if not query:
            return len(self._documents)
        return sum(1 for _ in self.scan(query))

    def all_documents(self) -> Iterator[dict[str, Any]]:
        """Iterate copies of the stored documents, in insertion order."""
        for document in self._documents.values():
            yield deep_copy_document(document)

    def rows(self, start: int, stop: int) -> Iterator[dict[str, Any]]:
        """The *stored* rows at insertion positions ``start:stop``.

        Uncopied, like :meth:`scan`; insert-only, so a position names
        the same row for the collection's whole life.
        """
        return islice(self._documents.values(), start, stop)

    def __len__(self) -> int:
        return len(self._documents)

    def storage_bytes(self) -> int:
        """Total serialized size of all documents (storage accounting)."""
        return sum(
            document_bytes(document) for document in self._documents.values()
        )
