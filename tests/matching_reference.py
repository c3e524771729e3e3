"""Reference interpreter for MongoDB-style filters.

The docstore evaluated filters with this interpreter until it compiled
them (:func:`repro.docstore.matching.compile_filter`).  It re-reads the
filter document for every row; the differential suite
(``tests/test_docstore_matching_differential.py``) holds the compiler to it,
value for value.  It knows the store's five forms and nothing else:

* a field clause holding a literal (equality; an array field also
  matches on containment, and ``None`` matches a missing field),
  ``{"$in": [...]}`` or ``{"$regex": pattern, "$options": flags}``;
* ``$and`` and ``$or`` over sub-filters.

Any other operator raises :class:`~repro.errors.QueryError`.
"""

from __future__ import annotations

import re
from typing import Any

from repro.docstore.documents import deep_get
from repro.errors import QueryError

_MISSING = object()


def _match_operator(op: str, value: Any, operand: Any,
                    spec: dict[str, Any]) -> bool:
    if op == "$in":
        if not isinstance(operand, (list, tuple)):
            raise QueryError("$in requires a list")
        if value is _MISSING:
            return None in operand
        if isinstance(value, list):
            return any(item in operand for item in value)
        return value in operand
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
        if "$regex" not in spec:
            raise QueryError("$options requires $regex")
        return True  # handled together with $regex
    raise QueryError(f"unknown operator {op}")


def _is_operator_doc(spec: Any) -> bool:
    return (
        isinstance(spec, dict)
        and bool(spec)
        and all(key.startswith("$") for key in spec)
    )


def _match_field(value: Any, spec: Any) -> bool:
    if _is_operator_doc(spec):
        return all(
            _match_operator(op, value, operand, spec)
            for op, operand in spec.items()
        )
    if value is _MISSING:
        return spec is None  # {"f": None} matches a missing field
    # Literal equality; arrays match on identity or containment.
    if isinstance(value, list) and not isinstance(spec, list):
        return spec in value or value == spec
    return value == spec


def matches(document: dict[str, Any], query: dict[str, Any]) -> bool:
    """True when ``document`` satisfies the MongoDB-style ``query``.

    >>> matches({"a": 5}, {"a": {"$in": [3, 5]}})
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
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator {key}")
        elif not _match_field(deep_get(document, key, _MISSING), spec):
            return False
    return True
