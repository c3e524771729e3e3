"""The compiled matcher against the reference interpreter.

``tests/matching_reference.py`` is the interpreter the docstore ran
before filters were compiled (with ``$ne`` on arrays fixed).  For
generated documents and well-formed filters over every supported
operator — nested logically, with ``$not`` / ``$elemMatch`` inside
field specs — one compiled predicate, reused across documents, must
give what the reference gives per document: the same value, or the
same exception type.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.docstore.matching import compile_filter, matches
from tests.matching_reference import matches as reference_matches

KEYS = ("a", "b", "c")
PATHS = ("a", "b", "c", "a.b", "a.c", "b.a", "a.0", "a.1", "a.b.c", "z")
STRINGS = ("a", "A", "ab", "Ba", "b", "")
PATTERNS = ("A", "^a", "B$", "a|B", r"\bAb", "^$", ".")
OPTIONS = ("i", "", "m", "s", "im", "is")
TYPE_NAMES = ("double", "string", "object", "array", "bool", "int",
              "number", "null")


def is_none(value):
    return value is None


def is_list(value):
    return isinstance(value, list)


def positive(value):
    return value > 0  # raises TypeError on strings, lists, dicts, absence


def two_fields(document):
    return len(document) >= 2


def a_is_one(document):
    return document["a"] == 1  # KeyError when "a" is absent


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from((-1.5, 0.0, 2.0, 2.5)),
    st.sampled_from(STRINGS),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), children, max_size=3),
    ),
    max_leaves=8,
)
documents = st.dictionaries(st.sampled_from(KEYS), values, max_size=3)

filters = st.deferred(lambda: st.lists(clauses, max_size=3).map(dict))
operator_docs = st.deferred(
    lambda: st.lists(operator_entries, min_size=1, max_size=3).map(
        lambda groups: dict(entry for group in groups for entry in group)
    )
)
field_specs = st.one_of(values, operator_docs)

# Each operator draws a list of (operator, operand) pairs: a $regex may
# bring its $options along.
OPERATORS = {
    **{op: st.tuples(st.just(op), values).map(lambda pair: [pair])
       for op in ("$eq", "$ne", "$gt", "$gte", "$lt", "$lte")},
    **{op: st.tuples(st.just(op), st.lists(values, max_size=3)).map(
        lambda pair: [pair]) for op in ("$in", "$nin", "$all")},
    "$exists": st.builds(lambda flag: [("$exists", flag)], st.booleans()),
    "$type": st.builds(lambda name: [("$type", name)],
                       st.sampled_from(TYPE_NAMES)),
    "$size": st.builds(lambda size: [("$size", size)], st.integers(0, 3)),
    "$regex": st.builds(
        lambda pattern, options: [("$regex", pattern)] + (
            [("$options", options)] if options is not None else []),
        st.sampled_from(PATTERNS), st.none() | st.sampled_from(OPTIONS)),
    "$options": st.builds(lambda options: [("$options", options)],
                          st.sampled_from(OPTIONS)),
    "$where": st.builds(lambda test: [("$where", test)],
                        st.sampled_from((is_none, is_list, positive))),
    "$elemMatch": st.builds(lambda sub: [("$elemMatch", sub)], filters),
    "$not": st.builds(lambda inner: [("$not", inner)],
                      operator_docs | st.dictionaries(
                          st.sampled_from(KEYS), values, max_size=2)),
}
operator_entries = st.one_of(*OPERATORS.values())
clauses = st.one_of(
    st.tuples(st.sampled_from(PATHS), field_specs),
    st.tuples(st.sampled_from(("$and", "$or", "$nor")),
              st.lists(filters, max_size=3)),
    st.tuples(st.just("$not"), filters),
    st.tuples(st.just("$where"), st.sampled_from((two_fields, a_is_one))),
)


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except Exception as error:  # the exception type is the outcome
        return type(error)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(documents, min_size=1, max_size=4), filters)
def test_compiled_filter_agrees_with_the_reference(docs, query):
    predicate = compile_filter(query)
    for document in docs:
        expected = outcome(reference_matches, document, query)
        assert outcome(predicate, document) == expected
        assert outcome(matches, document, query) == expected


field_values = st.lists(
    st.sampled_from(STRINGS) | st.lists(scalars, max_size=3) | values,
    min_size=1, max_size=4,
)


@pytest.mark.parametrize("op", sorted(OPERATORS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_each_operator_agrees_with_the_reference(op, data):
    """``op`` (with up to one more operator) on present values, then on
    an absent field."""
    entries = data.draw(OPERATORS[op]) + data.draw(
        st.lists(operator_entries, max_size=1).map(
            lambda groups: [entry for group in groups for entry in group]))
    query = {"a": dict(entries)}
    predicate = compile_filter(query)
    for document in [{"a": value} for value in data.draw(field_values)] + [{}]:
        assert outcome(predicate, document) == outcome(
            reference_matches, document, query)
