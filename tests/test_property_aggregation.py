"""Property-based tests of aggregation-pipeline algebra.

These pin down the algebraic laws the engine must satisfy — the same
laws a query optimizer (like the $match-first rewrite the paper relies
on) silently assumes.
"""

import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.aggregation import aggregate
from repro.docstore.collection import Collection
from repro.docstore.functions import FunctionRegistry
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


def _ids(result):
    return [(doc["a"], doc["b"], doc["tag"]) for doc in result.documents]


@given(_docs, _bounds, st.integers(0, 5))
def test_match_then_match_equals_and(docs, a_bound, b_bound):
    """$match(p) | $match(q)  ==  $match(p AND q)."""
    sequential = aggregate(docs, [
        {"$match": {"a": {"$gte": a_bound}}},
        {"$match": {"b": {"$lte": b_bound}}},
    ])
    combined = aggregate(docs, [
        {"$match": {"$and": [{"a": {"$gte": a_bound}},
                             {"b": {"$lte": b_bound}}]}},
    ])
    assert _ids(sequential) == _ids(combined)


@given(_docs, _bounds)
def test_match_commutes_with_addfields_on_untouched_paths(docs, bound):
    """$match on an input field commutes past $addFields of a new field."""
    before = aggregate(docs, [
        {"$match": {"a": {"$gte": bound}}},
        {"$addFields": {"c": {"$add": ["$a", "$b"]}}},
    ])
    after = aggregate(docs, [
        {"$addFields": {"c": {"$add": ["$a", "$b"]}}},
        {"$match": {"a": {"$gte": bound}}},
    ])
    assert before.documents == after.documents


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


@given(_docs)
def test_group_count_equals_counter(docs):
    grouped = aggregate(docs, [
        {"$group": {"_id": "$tag", "count": {"$count": {}}}},
    ])
    assert sorted(
        (doc["_id"], doc["count"]) for doc in grouped.documents
    ) == sorted(Counter(doc["tag"] for doc in docs).items())


@given(_docs)
def test_group_sum_partitions_total(docs):
    """Per-group sums add up to the global sum."""
    per_group = aggregate(docs, [
        {"$group": {"_id": "$tag", "total": {"$sum": "$a"}}},
    ])
    assert sum(doc["total"] for doc in per_group.documents) == sum(
        doc["a"] for doc in docs
    )


@given(_docs, _bounds)
def test_count_stage_matches_len(docs, bound):
    counted = aggregate(docs, [
        {"$match": {"a": {"$lt": bound}}},
        {"$count": "n"},
    ])
    matched = aggregate(docs, [{"$match": {"a": {"$lt": bound}}}])
    assert counted.documents[0]["n"] == len(matched.documents)


@given(_docs)
def test_unwind_after_push_roundtrip(docs):
    """$group($push) then $unwind recovers every original value."""
    result = aggregate(docs, [
        {"$group": {"_id": "$tag", "values": {"$push": "$a"}}},
        {"$unwind": "$values"},
    ])
    assert sorted(doc["values"] for doc in result.documents) == sorted(
        doc["a"] for doc in docs
    )


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
    st.builds(lambda bound: {"a": {"$gte": bound}}, _bounds),
    st.builds(lambda value: {"b": value}, st.integers(0, 5)),  # indexed
    st.builds(lambda tag, bound: {"tag": tag, "a": {"$lt": bound}},
              st.sampled_from(["x", "y", "z"]), _bounds),
)

_plain_projection = st.builds(
    lambda fields, flag, keep_id: {
        **{name: flag for name in fields},
        **({} if keep_id else {"_id": 0}),
    },
    st.lists(st.sampled_from(_FIELDS), unique=True, max_size=4),
    st.sampled_from([0, 1]), st.booleans(),
)

_second_stage = st.one_of(
    st.none(),
    st.builds(lambda spec: {"$project": spec}, _plain_projection),
    st.just({"$project": {"rows": 1, "total": {"$add": ["$a", "$b"]}}}),
    st.just({"$addFields": {"first": "$rows.0"}}),
    st.just({"$function": {"name": "scribbler", "as": "score"}}),
    st.just({"$unwind": "$rows"}),
)

_tail = st.lists(st.sampled_from([
    {"$function": {"name": "scribbler", "as": "score"}},
    {"$addFields": {"n": {"$size": {"$ifNull": ["$rows", []]}}}},
]), max_size=2)


def _scribbler(document):
    """A ``$function`` that writes into whatever it is handed."""
    for row in document.get("rows") or []:
        if isinstance(row, list):
            row.append("scribbled")
    document.setdefault("meta", {})["seen"] = True
    return len(document)


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
    registry = FunctionRegistry()
    registry.register("scribbler", _scribbler)

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
            pushed = aggregate(source, [{"$match": match}] + rest, registry)
        else:
            pushed = source.aggregate([{"$match": match}] + rest, registry)
        pushed_scans = scans(source) - start
        start = scans(source)
        matched = source.find(match).to_list()
        assert scans(source) - start == pushed_scans
        reference = aggregate(matched, rest, registry)
        assert _ordered(pushed.documents) == _ordered(reference.documents)
        assert pushed.stages[0].stage == "$match(indexed)"
        assert pushed.stages[0].docs_out == len(matched)
        assert _shape(pushed)[1:] == _shape(reference)
        for document in pushed.documents:
            _scribbler(document)
        assert stored(source) == before
