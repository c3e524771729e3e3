"""Property-based tests of aggregation-pipeline algebra.

These pin down the algebraic laws the engine must satisfy — the same
laws a query optimizer (like the $match-first rewrite the paper relies
on) silently assumes.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.aggregation import aggregate
from repro.docstore.collection import Collection
from repro.docstore.sharding import ShardedCollection

_docs = st.lists(
    st.fixed_dictionaries({
        "a": st.integers(-10, 10),
        "b": st.integers(0, 5),
        "tag": st.sampled_from(["x", "y", "z"]),
    }),
    max_size=25,
)

_bounds = st.integers(-10, 10)


def _at_least(bound, top=10):
    """``a >= bound`` over the drawn range, as an ``$in``."""
    return {"$in": list(range(bound, top + 1))}


def _below(bound, bottom=-10):
    """``a < bound`` over the drawn range, as an ``$in``."""
    return {"$in": list(range(bottom, bound))}


def _ids(result):
    return [(doc["a"], doc["b"], doc["tag"]) for doc in result.documents]


@given(_docs, _bounds, st.integers(0, 5))
def test_match_then_match_equals_and(docs, a_bound, b_bound):
    """$match(p) | $match(q)  ==  $match(p AND q)."""
    sequential = aggregate(docs, [
        {"$match": {"a": _at_least(a_bound)}},
        {"$match": {"b": _below(b_bound + 1, 0)}},
    ])
    combined = aggregate(docs, [
        {"$match": {"$and": [{"a": _at_least(a_bound)},
                             {"b": _below(b_bound + 1, 0)}]}},
    ])
    assert _ids(sequential) == _ids(combined)


@given(_docs, st.integers(0, 30), st.integers(0, 30))
def test_skip_limit_is_slicing(docs, skip, limit):
    result = aggregate(docs, [
        {"$sort": {"a": 1}},
        {"$skip": skip},
        {"$limit": limit},
    ])
    reference = sorted(docs, key=lambda d: d["a"])[skip:skip + limit]
    assert [doc["a"] for doc in result.documents] == [
        doc["a"] for doc in reference
    ]


@given(_docs)
def test_sort_is_idempotent(docs):
    once = aggregate(docs, [{"$sort": {"a": 1}}])
    twice = aggregate(docs, [{"$sort": {"a": 1}}, {"$sort": {"a": 1}}])
    assert _ids(once) == _ids(twice)


@given(_docs)
def test_sort_is_stable(docs):
    """Equal keys keep their input order (sorted() stability inherited)."""
    result = aggregate(docs, [{"$sort": {"b": 1}}])
    values = [(doc["b"], docs.index(doc)) for doc in result.documents]
    del values  # order checked structurally below
    seen_positions: dict[int, list[int]] = {}
    position_of = {id(doc): i for i, doc in enumerate(docs)}
    del position_of  # documents are copies; compare by key groups instead
    previous_key = None
    for doc in result.documents:
        key = doc["b"]
        assert previous_key is None or key >= previous_key
        seen_positions.setdefault(key, []).append(
            (doc["a"], doc["tag"])
        )
        previous_key = key
    for key, group in seen_positions.items():
        original = [(d["a"], d["tag"]) for d in docs if d["b"] == key]
        assert group == original


# -- the $match pushdown: a collection source ≡ the list find() returns ----

_FIELDS = ["a", "b", "tag", "rows", "meta.k"]

_stored_docs = st.lists(
    st.fixed_dictionaries({
        "a": st.integers(-10, 10),
        "b": st.integers(0, 5),
        "tag": st.sampled_from(["x", "y", "z"]),
        "rows": st.lists(st.lists(st.integers(0, 3), max_size=2),
                         max_size=3),
        "meta": st.fixed_dictionaries({"k": st.lists(st.integers(0, 3),
                                                     max_size=2)}),
    }),
    max_size=20,
)

_match = st.one_of(
    st.just({}),
    st.builds(lambda bound: {"a": _at_least(bound)}, _bounds),
    st.builds(lambda value: {"b": value}, st.integers(0, 5)),  # indexed
    st.builds(lambda tag, bound: {"tag": tag, "a": _below(bound)},
              st.sampled_from(["x", "y", "z"]), _bounds),
)

_plain_projection = st.builds(
    lambda fields, keep_id: {
        **{name: 1 for name in fields},
        **({} if keep_id else {"_id": 0}),
    },
    st.lists(st.sampled_from(_FIELDS), unique=True, max_size=4),
    st.booleans(),
)


def _scribbler(document):
    """A ``$function`` that writes into whatever it is handed."""
    for row in document.get("rows") or []:
        if isinstance(row, list):
            row.append("scribbled")
    document.setdefault("meta", {})["seen"] = True
    return len(document)


SCRIBBLE = {"$function": {"body": _scribbler, "as": "score"}}

#: The scribbling ``$function`` is the stage that writes into what it is
#: handed; every other shape reads.  No ``$limit`` follows a ``$sort``:
#: a sharded ranked page reports one ``$sort(top-k)`` stage, which the
#: scatter tests compare on their own.
_second_stage = st.one_of(
    st.none(),
    st.builds(lambda spec: {"$project": spec}, _plain_projection),
    st.just(SCRIBBLE),
    st.builds(lambda n: {"$limit": n}, st.integers(0, 6)),
)

_tail = st.lists(st.one_of(
    st.just(SCRIBBLE),
    st.just({"$sort": {"score": -1, "key": 1}}),
    st.builds(lambda n: {"$skip": n}, st.integers(0, 3)),
), max_size=3)


def _shape(result):
    return [(stats.stage, stats.docs_in, stats.docs_out)
            for stats in result.stages]


def _ordered(documents):
    """Documents with key order and list order significant."""
    return json.dumps(documents, default=repr)


@given(_stored_docs, _match, _second_stage, _tail)
@settings(max_examples=150, deadline=None)
def test_pushdown_equals_pipeline_over_find(docs, match, second, tail):
    rest = ([second] if second else []) + tail
    plain = Collection("docs")
    sharded = ShardedCollection("docs", "key", num_shards=3)
    for source in (plain, sharded):
        source.create_index("b")
        source.insert_many(
            dict(doc, key=position) for position, doc in enumerate(docs)
        )

    def shards(source):
        return [source] if source is plain else source.shards

    def scans(source):
        return sum(shard.scan_count for shard in shards(source))

    def stored(source):
        return _ordered([list(shard._documents.values())
                         for shard in shards(source)])

    for source in (plain, sharded):
        before, start = stored(source), scans(source)
        if source is plain:
            pushed = aggregate(source, [{"$match": match}] + rest)
        else:
            pushed = source.aggregate([{"$match": match}] + rest)
        pushed_scans = scans(source) - start
        start = scans(source)
        matched = source.find(match).to_list()
        assert scans(source) - start == pushed_scans
        reference = aggregate(matched, rest)
        assert _ordered(pushed.documents) == _ordered(reference.documents)
        assert pushed.stages[0].stage == "$match(indexed)"
        assert pushed.stages[0].docs_out == len(matched)
        assert _shape(pushed)[1:] == _shape(reference)
        for document in pushed.documents:
            _scribbler(document)
        assert stored(source) == before
