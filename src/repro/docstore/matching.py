"""MongoDB-style filters, compiled once into predicates.

Supported operators:

* comparison: ``$eq``, ``$ne``, ``$gt``, ``$gte``, ``$lt``, ``$lte``,
  ``$in``, ``$nin``
* element: ``$exists``, ``$type``, ``$size``
* string: ``$regex`` (with ``$options``)
* array: ``$all``, ``$elemMatch``
* logical: ``$and``, ``$or``, ``$nor``, ``$not``
* evaluation: ``$where`` (a Python callable standing in for JS)

Scalar comparisons follow MongoDB's array semantics: a filter on a field
holding an array matches when *any* element matches; ``$ne`` and
``$nin`` match an array only when *no* element equals the operand.

:func:`compile_filter` walks a filter once — validating every operator,
splitting dotted paths, compiling each ``$regex`` with its ``$options``
and every sub-filter — and returns one predicate over documents, so a
scan pays per row only for the tests themselves.  A malformed filter
raises :class:`~repro.errors.QueryError` (an invalid pattern,
:class:`re.error`) when it is compiled, whatever the collection holds.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable

from repro.docstore.documents import path_getter
from repro.errors import QueryError

#: A compiled filter: document -> matched.
Predicate = Callable[[Any], bool]
#: A compiled field test: the field's value (``_MISSING`` when absent).
_Test = Callable[[Any], bool]

_MISSING = object()

_ORDERINGS: dict[str, Callable[[Any, Any], bool]] = {
    "$gt": operator.gt,
    "$gte": operator.ge,
    "$lt": operator.lt,
    "$lte": operator.le,
}

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


def _always(value: Any) -> bool:
    return True


def _constant(verdict: bool) -> Callable[[], bool]:
    return lambda: verdict


def _all_of(tests: list[Callable[[Any], bool]]) -> Callable[[Any], bool]:
    if not tests:
        return _always
    if len(tests) == 1:
        return tests[0]

    def all_of(value: Any) -> bool:
        for test in tests:
            if not test(value):
                return False
        return True

    return all_of


def _is_operator_doc(spec: Any) -> bool:
    return (
        isinstance(spec, dict)
        and bool(spec)
        and all(key.startswith("$") for key in spec)
    )


# -- field tests ------------------------------------------------------------


def _equals(operand: Any) -> _Test:
    def equals(value: Any) -> bool:
        if isinstance(value, list):
            return value == operand or any(item == operand for item in value)
        return value == operand

    return equals


def _ordering(compare: Callable[[Any, Any], bool], operand: Any) -> _Test:
    def ordered(value: Any) -> bool:
        if value is _MISSING or not _comparable(value, operand):
            return False
        return compare(value, operand)

    def fanned_out(value: Any) -> bool:
        # Array fan-out: {"tags": {"$gt": 3}} matches [1, 5].
        if isinstance(value, list):
            return ordered(value) or any(ordered(item) for item in value)
        return ordered(value)

    return fanned_out


#: Types whose ``==`` agrees with their hash across one another, so a
#: set finds exactly what a list scan finds (``ObjectId`` also equals
#: its string form, which hashes differently; dicts and lists do not
#: hash).
_SET_TYPES = frozenset({str, int, float, bool, type(None)})


def _membership(op: str, operand: Any) -> _Test:
    if not isinstance(operand, (list, tuple)):
        raise QueryError(f"{op} requires a list")
    members = frozenset(operand) if all(
        type(item) in _SET_TYPES for item in operand) else None

    def contains(value: Any) -> bool:
        if members is not None and type(value) in _SET_TYPES:
            return value in members
        return value in operand

    if op == "$in":
        def is_in(value: Any) -> bool:
            if isinstance(value, list):
                return any(contains(item) for item in value)
            return contains(value)
        return is_in

    def not_in(value: Any) -> bool:
        if isinstance(value, list):
            return not any(contains(item) for item in value)
        return not contains(value)

    return not_in


def _has_type(name: Any) -> _Test:
    if not isinstance(name, str) or name not in _TYPE_NAMES:
        raise QueryError(f"unknown $type name {name!r}")
    expected = _TYPE_NAMES[name]
    numeric = name in ("int", "double", "number")

    def has_type(value: Any) -> bool:
        if value is _MISSING:
            return False
        if numeric and isinstance(value, bool):
            return False  # bool is not a number
        return isinstance(value, expected)

    return has_type


def _regex(pattern: Any, options: Any) -> _Test:
    flags = 0
    if "i" in options:
        flags |= re.IGNORECASE
    if "m" in options:
        flags |= re.MULTILINE
    if "s" in options:
        flags |= re.DOTALL
    search = re.compile(pattern, flags).search

    def regex(value: Any) -> bool:
        if isinstance(value, str):
            return search(value) is not None
        if isinstance(value, list):
            return any(
                isinstance(item, str) and search(item) is not None
                for item in value
            )
        return False

    return regex


def _compile_operator(op: str, operand: Any,
                      spec: dict[str, Any]) -> _Test:
    if op == "$eq":
        return _equals(operand)
    if op == "$ne":
        equals = _equals(operand)
        return lambda value: not equals(value)
    if op in _ORDERINGS:
        return _ordering(_ORDERINGS[op], operand)
    if op in ("$in", "$nin"):
        return _membership(op, operand)
    if op == "$exists":
        wanted = bool(operand)
        return lambda value: (value is not _MISSING) == wanted
    if op == "$type":
        return _has_type(operand)
    if op == "$size":
        return lambda value: isinstance(value, list) and len(value) == operand
    if op == "$regex":
        return _regex(operand, spec.get("$options", ""))
    if op == "$all":
        if not isinstance(operand, (list, tuple)):
            raise QueryError("$all requires a list")
        return lambda value: isinstance(value, list) and all(
            item in value for item in operand
        )
    if op == "$elemMatch":
        sub = compile_filter(operand)
        return lambda value: isinstance(value, list) and any(
            isinstance(item, dict) and sub(item) for item in value
        )
    if op == "$not":
        if not isinstance(operand, dict):
            raise QueryError("$not requires an operator document")
        inner = _compile_field_spec(operand)
        return lambda value: not inner(value)
    if op == "$where":
        if not callable(operand):
            raise QueryError("$where requires a callable")
        return lambda value: bool(operand(value))
    raise QueryError(f"unknown operator {op}")


def _compile_operators(spec: dict[str, Any]) -> dict[str, _Test]:
    """One test per operator of ``spec``, in order (``$options`` rides
    with ``$regex``)."""
    return {
        op: _compile_operator(op, operand, spec)
        for op, operand in spec.items() if op != "$options"
    }


def _compile_field_spec(spec: Any) -> _Test:
    """An operator document, or literal equality (arrays match on
    identity or containment)."""
    if _is_operator_doc(spec):
        return _all_of(list(_compile_operators(spec).values()))
    if isinstance(spec, list):
        return lambda value: value == spec

    def literal(value: Any) -> bool:
        if isinstance(value, list):
            return spec in value or value == spec
        return value == spec

    return literal


def _missing_test(spec: dict[str, Any],
                  tests: dict[str, _Test]) -> Callable[[], bool]:
    """What an operator document without ``$exists`` says of a missing
    field.

    MongoDB semantics: ``$ne``/``$nin`` match missing fields, ordinary
    comparisons do not, ``$eq: None`` matches missing.  A ``$not``
    reached before the verdict is settled reads its operand against
    ``None``.
    """
    negated: _Test | None = None
    verdict = True
    for op, operand in spec.items():
        if op == "$not":
            negated = tests[op]
            continue
        if op == "$ne":
            holds = operand is not None
        elif op == "$nin":
            holds = None not in operand
        elif op == "$eq":
            holds = operand is None
        elif op == "$in":
            holds = None in operand
        else:
            holds = False
        if not holds:
            verdict = False
            break
    if negated is None:
        return _constant(verdict)
    return lambda: negated(None) and verdict


def _compile_field(path: str, spec: Any) -> Predicate:
    get = path_getter(path, _MISSING)
    if _is_operator_doc(spec):
        tests = _compile_operators(spec)
        test = _all_of(list(tests.values()))
        if "$exists" in spec:
            return lambda document: test(get(document))
        missing = _missing_test(spec, tests)
    else:
        test = _compile_field_spec(spec)
        missing = _constant(spec is None)  # {"f": None} matches a missing field

    def field_clause(document: Any) -> bool:
        value = get(document)
        if value is _MISSING:
            return missing()
        return test(value)

    return field_clause


# -- filters -----------------------------------------------------------------


def _compile_filters(key: str, spec: Any) -> list[Predicate]:
    if not isinstance(spec, (list, tuple)):
        raise QueryError(f"{key} requires a list of filters")
    return [compile_filter(sub) for sub in spec]


def _compile_clause(key: str, spec: Any) -> Predicate:
    if key == "$and":
        return _all_of(_compile_filters(key, spec))
    if key in ("$or", "$nor"):
        alternatives = _compile_filters(key, spec)
        wanted = key == "$or"

        def any_of(document: Any) -> bool:
            for alternative in alternatives:
                if alternative(document):
                    return wanted
            return not wanted

        return any_of
    if key == "$not":
        negated = compile_filter(spec)
        return lambda document: not negated(document)
    if key == "$where":
        if not callable(spec):
            raise QueryError("top-level $where requires a callable")
        return lambda document: bool(spec(document))
    if key.startswith("$"):
        raise QueryError(f"unknown top-level operator {key}")
    return _compile_field(key, spec)


def compile_filter(query: dict[str, Any]) -> Predicate:
    """Compile the MongoDB-style ``query`` into a predicate over documents.

    Every clause is checked here, so a malformed filter raises before a
    single document is read.  Clauses run in the filter's order and stop
    at the first that fails.

    >>> recent = compile_filter({"year": {"$gte": 2021}})
    >>> recent({"year": 2022}), recent({"year": 2019}), recent({})
    (True, False, False)
    """
    if not isinstance(query, dict):
        raise QueryError("query must be a dict")
    return _all_of([
        _compile_clause(key, spec) for key, spec in query.items()
    ])


def matches(document: dict[str, Any], query: dict[str, Any]) -> bool:
    """True when ``document`` satisfies the MongoDB-style ``query``.

    >>> matches({"a": 5}, {"a": {"$gte": 3}})
    True
    >>> matches({"tags": ["x", "y"]}, {"tags": "x"})
    True
    """
    return compile_filter(query)(document)


def key_constraints(query: dict[str, Any]) -> dict[str, list[Any]]:
    """Top-level paths ``query`` pins to a few values, for index lookup.

    Each path maps to the values one of which it must equal — a
    literal, an ``$eq`` or an ``$in`` — so the documents holding one of
    them are every candidate.  A path is left out when a value would
    match more than its hash bucket: ``None`` (also a missing field), a
    list or tuple (also the whole array, which is indexed element by
    element) or a dict.

    >>> key_constraints({"a": 1, "b": {"$in": ["x", "y"]}, "c": [1]})
    {'a': [1], 'b': ['x', 'y']}
    """
    constraints: dict[str, list[Any]] = {}
    for key, spec in query.items():
        if key.startswith("$"):
            continue
        if not _is_operator_doc(spec):
            values = [spec]
        elif "$eq" in spec:
            values = [spec["$eq"]]
        elif isinstance(spec.get("$in"), (list, tuple)):
            values = list(spec["$in"])
        else:
            continue
        if not any(value is None or isinstance(value, (list, tuple, dict))
                   for value in values):
            constraints[key] = values
    return constraints
