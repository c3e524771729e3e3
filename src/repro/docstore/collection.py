"""A single-node document collection with CRUD, cursors, and indexes.

The update language covers the operators the system uses: ``$set``,
``$unset``, ``$inc``, ``$mul``, ``$rename``, ``$push`` (with ``$each``),
``$pull``, ``$addToSet``, ``$pop``, ``$min``, ``$max``.  ``find`` returns a
:class:`Cursor` supporting ``sort`` / ``skip`` / ``limit`` / projection —
the primitives the aggregation engine and the search engines build on.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from repro.docstore.documents import (
    ObjectId,
    deep_copy_document,
    deep_get,
    deep_set,
    deep_unset,
    document_bytes,
    validate_document,
)
from repro.docstore.indexes import FieldIndex
from repro.docstore.matching import equality_constraints, matches
from repro.errors import DocumentError, DuplicateKeyError, QueryError

_MISSING = object()


class Cursor:
    """Lazy result set over a snapshot of matching documents."""

    def __init__(self, documents: list[dict[str, Any]]) -> None:
        self._documents = documents
        self._sort_spec: list[tuple[str, int]] | None = None
        self._skip = 0
        self._limit: int | None = None
        self._projection: dict[str, int] | None = None
        self._consumed = False

    def sort(self, key: str | list[tuple[str, int]],
             direction: int = 1) -> "Cursor":
        """Sort by a field (or a list of ``(field, direction)`` pairs)."""
        if isinstance(key, str):
            self._sort_spec = [(key, direction)]
        else:
            self._sort_spec = list(key)
        return self

    def skip(self, count: int) -> "Cursor":
        self._skip = max(0, count)
        return self

    def limit(self, count: int) -> "Cursor":
        self._limit = max(0, count)
        return self

    def project(self, projection: dict[str, int]) -> "Cursor":
        self._projection = projection
        return self

    def _materialize(self) -> list[dict[str, Any]]:
        documents = self._documents
        if self._sort_spec:
            for path, direction in reversed(self._sort_spec):
                documents = sorted(
                    documents,
                    key=lambda doc: _sort_key(deep_get(doc, path)),
                    reverse=direction < 0,
                )
        if self._skip:
            documents = documents[self._skip:]
        if self._limit is not None:
            documents = documents[: self._limit]
        if self._projection is not None:
            documents = [
                apply_projection(doc, self._projection) for doc in documents
            ]
        return documents

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())

    def to_list(self) -> list[dict[str, Any]]:
        return self._materialize()

    def first(self) -> dict[str, Any] | None:
        results = self._materialize()
        return results[0] if results else None


def _sort_key(value: Any) -> tuple[int, Any]:
    """Total order across mixed types: None < numbers < strings < rest."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, ObjectId):
        return (3, value.value)
    return (4, str(value))


def apply_projection(document: dict[str, Any],
                     projection: dict[str, int]) -> dict[str, Any]:
    """Apply a MongoDB-style inclusion or exclusion projection.

    The result shares nothing with ``document``: every kept value is
    deep-copied (``_id`` included), so a caller may pass a stored row.
    Included fields come out in the projection's own order.
    """
    if not projection:
        return deep_copy_document(document)
    includes = [k for k, v in projection.items() if v and k != "_id"]
    excludes = [k for k, v in projection.items() if not v and k != "_id"]
    if includes and excludes:
        raise QueryError("cannot mix inclusion and exclusion in a projection")
    if includes:
        result: dict[str, Any] = {}
        if projection.get("_id", 1) and "_id" in document:
            result["_id"] = deep_copy_document({"v": document["_id"]})["v"]
        for path in includes:
            value = deep_get(document, path, _MISSING)
            if value is not _MISSING:
                deep_set(result, path, deep_copy_document({"v": value})["v"])
        return result
    result = deep_copy_document(document)
    for path in excludes:
        deep_unset(result, path)
    if not projection.get("_id", 1):
        result.pop("_id", None)
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
        """Monotonic mutation counter (insert/update/delete/replace).

        Result caches key their entries to this counter: any write makes
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

    def delete_one(self, query: dict[str, Any]) -> int:
        for doc_id, document in self._documents.items():
            if matches(document, query):
                self._remove(doc_id)
                return 1
        return 0

    def delete_many(self, query: dict[str, Any]) -> int:
        doomed = [
            doc_id
            for doc_id, document in self._documents.items()
            if matches(document, query)
        ]
        for doc_id in doomed:
            self._remove(doc_id)
        return len(doomed)

    def _remove(self, doc_id: Any) -> None:
        del self._documents[doc_id]
        for index in self._field_indexes.values():
            index.remove(doc_id)
        self._version += 1

    def update_one(self, query: dict[str, Any],
                   update: dict[str, Any], upsert: bool = False) -> int:
        for doc_id, document in self._documents.items():
            if matches(document, query):
                self._apply_update(doc_id, update)
                return 1
        if upsert:
            self._upsert(query, update)
            return 1
        return 0

    def _upsert(self, query: dict[str, Any],
                update: dict[str, Any]) -> Any:
        """Insert the document an unmatched upsert implies.

        Seeded from the query's equality constraints (as MongoDB does),
        then the update operators are applied — including ``$setOnInsert``,
        which only ever fires on this path.
        """
        seed: dict[str, Any] = {}
        for path, value in equality_constraints(query).items():
            deep_set(seed, path, value)
        doc_id = self.insert_one(seed)
        combined = dict(update)
        set_on_insert = combined.pop("$setOnInsert", None)
        if set_on_insert:
            combined["$set"] = {**set_on_insert,
                                **combined.get("$set", {})}
        if combined:
            self._apply_update(doc_id, combined)
        return doc_id

    def find_one_and_update(self, query: dict[str, Any],
                            update: dict[str, Any],
                            return_new: bool = True,
                            upsert: bool = False
                            ) -> dict[str, Any] | None:
        """Atomically update the first match and return it.

        ``return_new`` selects the post-update (default) or pre-update
        image; None when nothing matched and ``upsert`` is off.
        """
        for doc_id, document in self._documents.items():
            if matches(document, query):
                before = deep_copy_document(document)
                self._apply_update(doc_id, update)
                if return_new:
                    return deep_copy_document(self._documents[doc_id])
                return before
        if upsert:
            doc_id = self._upsert(query, update)
            if return_new:
                return deep_copy_document(self._documents[doc_id])
            return None
        return None

    def update_many(self, query: dict[str, Any],
                    update: dict[str, Any]) -> int:
        targets = [
            doc_id
            for doc_id, document in self._documents.items()
            if matches(document, query)
        ]
        for doc_id in targets:
            self._apply_update(doc_id, update)
        return len(targets)

    def replace_one(self, query: dict[str, Any],
                    replacement: dict[str, Any]) -> int:
        for doc_id, document in self._documents.items():
            if matches(document, query):
                new_doc = deep_copy_document(validate_document(replacement))
                new_doc["_id"] = doc_id
                self._documents[doc_id] = new_doc
                self._reindex(doc_id)
                self._version += 1
                return 1
        return 0

    def _apply_update(self, doc_id: Any, update: dict[str, Any]) -> None:
        document = self._documents[doc_id]
        if not update:
            raise DocumentError("empty update document")
        if not all(key.startswith("$") for key in update):
            raise DocumentError(
                "updates must use operators; use replace_one for whole-doc "
                "replacement"
            )
        for op, fields in update.items():
            applier = _UPDATE_OPERATORS.get(op)
            if applier is None:
                raise DocumentError(f"unknown update operator {op}")
            for path, operand in fields.items():
                if path == "_id":
                    raise DocumentError("_id is immutable")
                applier(document, path, operand)
        self._reindex(doc_id)
        self._version += 1

    def _reindex(self, doc_id: Any) -> None:
        document = self._documents[doc_id]
        for index in self._field_indexes.values():
            index.update(doc_id, document)

    # -- reads ---------------------------------------------------------

    def _candidates(self, query: dict[str, Any]) -> Iterable[Any]:
        """Choose the cheapest candidate id set using available indexes."""
        best: set[Any] | None = None
        for path, value in equality_constraints(query).items():
            index = self._field_indexes.get(path)
            if index is None:
                continue
            ids = index.lookup(value)
            if best is None or len(ids) < len(best):
                best = ids
        if best is None:
            return list(self._documents)
        return best

    def explain(self, query: dict[str, Any] | None = None
                ) -> dict[str, Any]:
        """The access plan ``find`` would use, without executing it.

        Reports the winning index (if any), the candidate-set size it
        yields, and the full collection size — the numbers behind the
        E3b pushdown experiment.
        """
        query = query or {}
        plan: dict[str, Any] = {
            "collection": self.name,
            "documents": len(self._documents),
            "strategy": "full_scan",
            "index": None,
            "candidates": len(self._documents),
        }
        best: tuple[int, str] | None = None
        for path, value in equality_constraints(query).items():
            index = self._field_indexes.get(path)
            if index is None:
                continue
            size = len(index.lookup(value))
            if best is None or size < best[0]:
                best = (size, path)
        if best is not None:
            plan.update(strategy="hash_index", index=best[1],
                        candidates=best[0])
        return plan

    def scan(self, query: dict[str, Any] | None = None
             ) -> Iterator[dict[str, Any]]:
        """Yield the *stored* documents matching ``query``, uncopied.

        The one read loop under ``find``, ``count`` and the aggregation
        ``$match`` pushdown: candidates come from the indexes and every
        document examined counts into ``scan_count``.  The rows are the
        collection's own state — read-only for the caller, who copies
        whatever it hands on (reads copy on the way out, once).
        """
        query = query or {}
        for doc_id in self._candidates(query):
            document = self._documents.get(doc_id)
            if document is None:
                continue
            self.scan_count += 1
            if matches(document, query):
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
        return self.find(query, projection).first()

    def find_by_id(self, doc_id: Any) -> dict[str, Any] | None:
        document = self._documents.get(doc_id)
        return deep_copy_document(document) if document is not None else None

    def count(self, query: dict[str, Any] | None = None) -> int:
        if not query:
            return len(self._documents)
        return sum(1 for _ in self.scan(query))

    def distinct(self, path: str,
                 query: dict[str, Any] | None = None) -> list[Any]:
        seen: list[Any] = []
        for document in self.find(query):
            value = deep_get(document, path, _MISSING)
            if value is _MISSING:
                continue
            values = value if isinstance(value, list) else [value]
            for item in values:
                if item not in seen:
                    seen.append(item)
        return seen

    def all_documents(self, start: int = 0) -> Iterator[dict[str, Any]]:
        """Iterate copies of the stored documents, in insertion order.

        ``start`` skips that many leading documents without copying
        them (an index extending itself reads only the appended rows).
        """
        for document in islice(self._documents.values(), start, None):
            yield deep_copy_document(document)

    def __len__(self) -> int:
        return len(self._documents)

    def storage_bytes(self) -> int:
        """Total serialized size of all documents (storage accounting)."""
        return sum(
            document_bytes(document) for document in self._documents.values()
        )


# -- update operators -----------------------------------------------------

def _op_set(document: dict[str, Any], path: str, operand: Any) -> None:
    deep_set(document, path, deep_copy_document({"v": operand})["v"])


def _op_unset(document: dict[str, Any], path: str, operand: Any) -> None:
    deep_unset(document, path)


def _numeric_or_zero(document: dict[str, Any], path: str) -> Any:
    value = deep_get(document, path, 0)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DocumentError(f"cannot apply numeric update to {path!r}")
    return value


def _op_inc(document: dict[str, Any], path: str, operand: Any) -> None:
    deep_set(document, path, _numeric_or_zero(document, path) + operand)


def _op_mul(document: dict[str, Any], path: str, operand: Any) -> None:
    deep_set(document, path, _numeric_or_zero(document, path) * operand)


def _op_min(document: dict[str, Any], path: str, operand: Any) -> None:
    current = deep_get(document, path, _MISSING)
    if current is _MISSING or operand < current:
        deep_set(document, path, operand)


def _op_max(document: dict[str, Any], path: str, operand: Any) -> None:
    current = deep_get(document, path, _MISSING)
    if current is _MISSING or operand > current:
        deep_set(document, path, operand)


def _op_rename(document: dict[str, Any], path: str, operand: Any) -> None:
    value = deep_get(document, path, _MISSING)
    if value is _MISSING:
        return
    deep_unset(document, path)
    deep_set(document, str(operand), value)


def _array_at(document: dict[str, Any], path: str) -> list[Any]:
    value = deep_get(document, path, _MISSING)
    if value is _MISSING:
        value = []
        deep_set(document, path, value)
    if not isinstance(value, list):
        raise DocumentError(f"field {path!r} is not an array")
    return value


def _op_push(document: dict[str, Any], path: str, operand: Any) -> None:
    array = _array_at(document, path)
    if isinstance(operand, dict) and "$each" in operand:
        array.extend(operand["$each"])
    else:
        array.append(operand)


def _op_add_to_set(document: dict[str, Any], path: str, operand: Any) -> None:
    array = _array_at(document, path)
    items = (
        operand["$each"]
        if isinstance(operand, dict) and "$each" in operand
        else [operand]
    )
    for item in items:
        if item not in array:
            array.append(item)


def _op_pull(document: dict[str, Any], path: str, operand: Any) -> None:
    value = deep_get(document, path, _MISSING)
    if value is _MISSING or not isinstance(value, list):
        return
    if isinstance(operand, dict) and all(
        k.startswith("$") for k in operand
    ) and operand:
        from repro.docstore.matching import _match_field_spec  # noqa: PLC0415
        value[:] = [item for item in value
                    if not _match_field_spec(item, operand)]
    else:
        value[:] = [item for item in value if item != operand]


def _op_pop(document: dict[str, Any], path: str, operand: Any) -> None:
    value = deep_get(document, path, _MISSING)
    if value is _MISSING or not isinstance(value, list) or not value:
        return
    if operand == -1:
        value.pop(0)
    else:
        value.pop()


def _op_set_on_insert(document: dict[str, Any], path: str,
                      operand: Any) -> None:
    """No-op on matched updates; the upsert path applies it as $set."""


_UPDATE_OPERATORS: dict[str, Callable[[dict[str, Any], str, Any], None]] = {
    "$set": _op_set,
    "$setOnInsert": _op_set_on_insert,
    "$unset": _op_unset,
    "$inc": _op_inc,
    "$mul": _op_mul,
    "$min": _op_min,
    "$max": _op_max,
    "$rename": _op_rename,
    "$push": _op_push,
    "$addToSet": _op_add_to_set,
    "$pull": _op_pull,
    "$pop": _op_pop,
}
