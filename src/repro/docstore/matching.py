"""MongoDB-style filters, compiled once into predicates.

The filter language is the five forms the system sends: the engines'
``$match`` (:meth:`repro.search.columnar.MatchPlan.match_document`),
the ``paper_id`` ``$in`` prefilter in front of it, and ``find_one`` /
``count`` on a key.

* ``{path: literal}`` — equality; a field holding an array also matches
  when one of its elements equals the literal, and ``None`` also
  matches a missing field;
* ``{path: {"$in": [...]}}`` — equality with any member, element by
  element over an array (a ``None`` member matches a missing field);
* ``{path: {"$regex": pattern, "$options": flags}}`` — ``re.search``
  over a string, or over the string elements of an array, with the
  ``i`` / ``m`` / ``s`` flags;
* ``{"$and": [filter, ...]}`` and ``{"$or": [filter, ...]}``.

A filter's clauses, and the operators of one field document, must all
hold.  Any other operator is refused, so a comparison, ``$ne`` or
``$where`` fails loudly rather than matching something.

:func:`compile_filter` walks a filter once — validating every operator,
splitting dotted paths, compiling each ``$regex`` with its ``$options``
and every sub-filter — and returns one predicate over documents, so a
scan pays per row only for the tests themselves.  A malformed filter
raises :class:`~repro.errors.QueryError` (an invalid pattern,
:class:`re.error`) when it is compiled, whatever the collection holds.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from repro.docstore.documents import path_getter
from repro.errors import QueryError

#: A compiled filter: document -> matched.
Predicate = Callable[[Any], bool]
#: A compiled field test: the value of a present field.
_Test = Callable[[Any], bool]

_MISSING = object()


def _always(value: Any) -> bool:
    return True


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


def _literal(spec: Any) -> _Test:
    """Equality; an array field also matches on containment."""
    if isinstance(spec, list):
        return lambda value: value == spec

    def literal(value: Any) -> bool:
        if isinstance(value, list):
            return spec in value or value == spec
        return value == spec

    return literal


#: Types whose ``==`` agrees with their hash across one another, so a
#: set finds exactly what a list scan finds (``ObjectId`` also equals
#: its string form, which hashes differently; dicts and lists do not
#: hash).
_SET_TYPES = frozenset({str, int, float, bool, type(None)})


def _membership(operand: Any) -> _Test:
    if not isinstance(operand, (list, tuple)):
        raise QueryError("$in requires a list")
    members = frozenset(operand) if all(
        type(item) in _SET_TYPES for item in operand) else None

    def contains(value: Any) -> bool:
        if members is not None and type(value) in _SET_TYPES:
            return value in members
        return value in operand

    def is_in(value: Any) -> bool:
        if isinstance(value, list):
            return any(contains(item) for item in value)
        return contains(value)

    return is_in


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


def _compile_operators(spec: dict[str, Any]) -> _Test:
    """One test per operator of ``spec``, in order (``$options`` rides
    with ``$regex``)."""
    tests: list[_Test] = []
    for op, operand in spec.items():
        if op == "$in":
            tests.append(_membership(operand))
        elif op == "$regex":
            tests.append(_regex(operand, spec.get("$options", "")))
        elif op != "$options":
            raise QueryError(f"unknown operator {op}")
        elif "$regex" not in spec:
            raise QueryError("$options requires $regex")
    return _all_of(tests)


def _compile_field(path: str, spec: Any) -> Predicate:
    get = path_getter(path, _MISSING)
    if _is_operator_doc(spec):
        test = _compile_operators(spec)
        # Only an ``$in`` listing None matches a missing field.
        missing = all(op == "$in" and None in operand
                      for op, operand in spec.items())
    else:
        test = _literal(spec)
        missing = spec is None

    def field_clause(document: Any) -> bool:
        value = get(document)
        if value is _MISSING:
            return missing
        return test(value)

    return field_clause


# -- filters -----------------------------------------------------------------


def _compile_clause(key: str, spec: Any) -> Predicate:
    if key in ("$and", "$or"):
        if not isinstance(spec, (list, tuple)):
            raise QueryError(f"{key} requires a list of filters")
        filters = [compile_filter(sub) for sub in spec]
        if key == "$and":
            return _all_of(filters)

        def any_of(document: Any) -> bool:
            for alternative in filters:
                if alternative(document):
                    return True
            return False

        return any_of
    if key.startswith("$"):
        raise QueryError(f"unknown top-level operator {key}")
    return _compile_field(key, spec)


def compile_filter(query: dict[str, Any]) -> Predicate:
    """Compile the MongoDB-style ``query`` into a predicate over documents.

    Every clause is checked here, so a malformed filter raises before a
    single document is read.  Clauses run in the filter's order and stop
    at the first that fails.

    >>> recent = compile_filter({"year": {"$in": [2021, 2022]}})
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

    >>> matches({"title": "Vaccines"}, {"title": {"$regex": "^vacc",
    ...                                           "$options": "i"}})
    True
    >>> matches({"tags": ["x", "y"]}, {"tags": "x"})
    True
    """
    return compile_filter(query)(document)


def key_constraints(query: dict[str, Any]) -> dict[str, list[Any]]:
    """Top-level paths ``query`` pins to a few values, for index lookup.

    Each path maps to the values one of which it must equal — a literal
    or an ``$in`` — so the documents holding one of them are every
    candidate.  A path is left out when a value would match more than
    its hash bucket: ``None`` (also a missing field), a list or tuple
    (also the whole array, which is indexed element by element) or a
    dict.

    >>> key_constraints({"a": 1, "b": {"$in": ["x", "y"]}, "c": [1]})
    {'a': [1], 'b': ['x', 'y']}
    """
    constraints: dict[str, list[Any]] = {}
    for key, spec in query.items():
        if key.startswith("$"):
            continue
        if not _is_operator_doc(spec):
            values = [spec]
        elif isinstance(spec.get("$in"), (list, tuple)):
            values = list(spec["$in"])
        else:
            continue
        if not any(value is None or isinstance(value, (list, tuple, dict))
                   for value in values):
            constraints[key] = values
    return constraints
