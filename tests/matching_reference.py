"""Reference interpreter for MongoDB-style filters.

The docstore evaluated filters with this interpreter until it compiled
them (:func:`repro.docstore.matching.compile_filter`).  It re-reads the
filter document for every row; the differential suite
(``tests/test_docstore_matching_differential.py``) holds the compiler to it,
value for value and exception type for exception type.  The one change
from the old interpreter is ``$ne`` on arrays, which matches only when
no element equals the operand (as ``$nin`` and ``$not: {$eq}`` do).

Supported operators:

* comparison: ``$eq``, ``$ne``, ``$gt``, ``$gte``, ``$lt``, ``$lte``,
  ``$in``, ``$nin``
* element: ``$exists``, ``$type``, ``$size``
* string: ``$regex`` (with ``$options``)
* array: ``$all``, ``$elemMatch``
* logical: ``$and``, ``$or``, ``$nor``, ``$not``
* evaluation: ``$where`` (a Python callable standing in for JS)

Scalar comparisons follow MongoDB's array semantics: a filter on a field
holding an array matches when *any* element matches.
"""

from __future__ import annotations

import re
from typing import Any

from repro.docstore.documents import deep_get
from repro.errors import QueryError

_MISSING = object()

_COMPARISON_OPS = frozenset(
    {"$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$nin"}
)
_ALL_OPS = _COMPARISON_OPS | frozenset(
    {"$exists", "$type", "$size", "$regex", "$options", "$all",
     "$elemMatch", "$not", "$where"}
)

_TYPE_NAMES: dict[str, type | tuple[type, ...]] = {
    "double": float,
    "string": str,
    "object": dict,
    "array": list,
    "bool": bool,
    "int": int,
    "number": (int, float),
    "null": type(None),
}


def _comparable(left: Any, right: Any) -> bool:
    """MongoDB only compares values of the same BSON type family."""
    numeric = (int, float)
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return True
    return type(left) is type(right)


def _compare(op: str, value: Any, operand: Any) -> bool:
    if op == "$eq":
        return value == operand
    if op == "$ne":
        if isinstance(value, list):
            return not (value == operand
                        or any(item == operand for item in value))
        return value != operand
    if op == "$in":
        if not isinstance(operand, (list, tuple)):
            raise QueryError("$in requires a list")
        if isinstance(value, list):
            return any(item in operand for item in value)
        return value in operand
    if op == "$nin":
        if not isinstance(operand, (list, tuple)):
            raise QueryError("$nin requires a list")
        if isinstance(value, list):
            return all(item not in operand for item in value)
        return value not in operand
    if value is _MISSING or not _comparable(value, operand):
        return False
    if op == "$gt":
        return value > operand
    if op == "$gte":
        return value >= operand
    if op == "$lt":
        return value < operand
    if op == "$lte":
        return value <= operand
    raise QueryError(f"unknown comparison operator {op}")


def _match_operator(op: str, value: Any, operand: Any,
                    spec: dict[str, Any]) -> bool:
    if op in _COMPARISON_OPS:
        # Array fan-out: {"tags": {"$gt": 3}} matches [1, 5].
        if isinstance(value, list) and op not in ("$in", "$nin", "$ne"):
            if _compare(op, value, operand):
                return True
            return any(_compare(op, item, operand) for item in value)
        return _compare(op, value, operand)
    if op == "$exists":
        exists = value is not _MISSING
        return exists == bool(operand)
    if op == "$type":
        expected = _TYPE_NAMES.get(operand)
        if expected is None:
            raise QueryError(f"unknown $type name {operand!r}")
        if value is _MISSING:
            return False
        if operand in ("int", "double", "number") and isinstance(value, bool):
            return False
        return isinstance(value, expected)
    if op == "$size":
        return isinstance(value, list) and len(value) == operand
    if op == "$regex":
        flags = 0
        options = spec.get("$options", "")
        if "i" in options:
            flags |= re.IGNORECASE
        if "m" in options:
            flags |= re.MULTILINE
        if "s" in options:
            flags |= re.DOTALL
        pattern = re.compile(operand, flags)
        if isinstance(value, str):
            return bool(pattern.search(value))
        if isinstance(value, list):
            return any(
                isinstance(item, str) and pattern.search(item)
                for item in value
            )
        return False
    if op == "$options":
        return True  # handled together with $regex
    if op == "$all":
        if not isinstance(operand, (list, tuple)):
            raise QueryError("$all requires a list")
        if not isinstance(value, list):
            return False
        return all(item in value for item in operand)
    if op == "$elemMatch":
        if not isinstance(value, list):
            return False
        return any(
            isinstance(item, dict) and matches(item, operand)
            for item in value
        )
    if op == "$not":
        if isinstance(operand, dict):
            return not _match_field_spec(value, operand)
        raise QueryError("$not requires an operator document")
    if op == "$where":
        if not callable(operand):
            raise QueryError("$where requires a callable")
        return bool(operand(value))
    raise QueryError(f"unknown operator {op}")


def _is_operator_doc(spec: Any) -> bool:
    return (
        isinstance(spec, dict)
        and bool(spec)
        and all(key.startswith("$") for key in spec)
    )


def _match_field_spec(value: Any, spec: Any) -> bool:
    if _is_operator_doc(spec):
        for op in spec:
            if op not in _ALL_OPS:
                raise QueryError(f"unknown operator {op}")
        return all(
            _match_operator(op, value, operand, spec)
            for op, operand in spec.items()
        )
    # Literal equality; arrays match on identity or containment.
    if isinstance(value, list) and not isinstance(spec, list):
        return spec in value or value == spec
    return value == spec


def matches(document: dict[str, Any], query: dict[str, Any]) -> bool:
    """True when ``document`` satisfies the MongoDB-style ``query``.

    >>> matches({"a": 5}, {"a": {"$gte": 3}})
    True
    >>> matches({"tags": ["x", "y"]}, {"tags": "x"})
    True
    """
    if not isinstance(query, dict):
        raise QueryError("query must be a dict")
    for key, spec in query.items():
        if key == "$and":
            if not all(matches(document, sub) for sub in spec):
                return False
        elif key == "$or":
            if not any(matches(document, sub) for sub in spec):
                return False
        elif key == "$nor":
            if any(matches(document, sub) for sub in spec):
                return False
        elif key == "$not":
            if matches(document, spec):
                return False
        elif key == "$where":
            if not callable(spec):
                raise QueryError("top-level $where requires a callable")
            if not spec(document):
                return False
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator {key}")
        else:
            needs_existence = not (
                _is_operator_doc(spec) and "$exists" in spec
            )
            value = deep_get(document, key, _MISSING)
            if value is _MISSING:
                if _is_operator_doc(spec):
                    value_for_ops = _MISSING
                    if needs_existence and not _spec_matches_missing(spec):
                        return False
                    if not needs_existence and not _match_field_spec(
                        value_for_ops, spec
                    ):
                        return False
                    continue
                if spec is None:
                    continue  # {"f": None} matches a missing field
                return False
            if not _match_field_spec(value, spec):
                return False
    return True


def _spec_matches_missing(spec: dict[str, Any]) -> bool:
    """Evaluate an operator doc against a missing field.

    MongoDB semantics: ``$ne``/``$nin`` match missing fields, ordinary
    comparisons do not, ``$eq: None`` matches missing.
    """
    for op in spec:
        if op not in _ALL_OPS:
            raise QueryError(f"unknown operator {op}")
    for op, operand in spec.items():
        if op == "$ne":
            if operand is None:
                return False
            continue
        if op == "$nin":
            if None in operand:
                return False
            continue
        if op == "$eq" and operand is None:
            continue
        if op == "$in" and None in operand:
            continue
        if op == "$not":
            if _match_field_spec(None, operand):
                return False
            continue
        return False
    return True

