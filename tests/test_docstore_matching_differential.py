"""The compiled matcher against the reference interpreter.

``tests/matching_reference.py`` is the interpreter the docstore ran
before filters were compiled, cut to the five forms the store keeps.
For generated documents and well-formed filters over those forms —
literals, ``$in``, ``$regex`` with or without ``$options``, nested in
``$and`` / ``$or`` — one compiled predicate, reused across documents,
must give what the reference gives per document.
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
# bring its $options along, and the $options entry is a $regex that
# always does.
OPERATORS = {
    "$in": st.builds(lambda members: [("$in", members)],
                     st.lists(values, max_size=3)),
    "$regex": st.builds(
        lambda pattern, options: [("$regex", pattern)] + (
            [("$options", options)] if options is not None else []),
        st.sampled_from(PATTERNS), st.none() | st.sampled_from(OPTIONS)),
    "$options": st.builds(
        lambda pattern, options: [("$regex", pattern), ("$options", options)],
        st.sampled_from(PATTERNS), st.sampled_from(OPTIONS)),
}
operator_entries = st.one_of(*OPERATORS.values())
clauses = st.one_of(
    st.tuples(st.sampled_from(PATHS), field_specs),
    st.tuples(st.sampled_from(("$and", "$or")),
              st.lists(filters, max_size=3)),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(documents, min_size=1, max_size=4), filters)
def test_compiled_filter_agrees_with_the_reference(docs, query):
    predicate = compile_filter(query)
    for document in docs:
        expected = reference_matches(document, query)
        assert predicate(document) == expected
        assert matches(document, query) == expected


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
        assert predicate(document) == reference_matches(document, query)
