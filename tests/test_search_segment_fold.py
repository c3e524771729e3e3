"""The delta tier stays geometric whatever the batch sizes.

``ColumnarIndex.extend`` folds every trailing delta smaller than twice
the arriving run into it (the logarithmic method).  For generated
commit sequences, after every refresh: the segments tile the
collection, each older delta holds at least twice the next newer one's
rows, ``delta_segments ≤ ⌊log2(delta_rows)⌋ + 1``, the base is
untouched, an index captured before the extend still answers from its
old snapshot, and pages equal a one-shot build's and the scalar
pipeline's.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.functions import FunctionRegistry
from repro.search import columnar
from repro.search.all_fields import AllFieldsEngine
from repro.search.indexing import ALL_SEARCH_FIELDS

WORDS = ("covid vaccine spike protein trial mask transmission antibody "
         "variant dose efficacy fever cough hospital").split()

QUERIES = ["covid", "vaccine trial", "mask"]

#: A hand-planned kernel query with constant IDFs: an old index object
#: must keep giving the same answer to it however the corpus moves on.
SPEC = columnar.QuerySpec(
    clauses=((("search.abstract", "covid", "covid"),),),
    words=(("covid", 1.0),),
    fields=(("search.title", 3.0, 1.0), ("search.abstract", 2.0, 1.0)),
    prox_stems=None,
)


def _papers(count: int) -> list[dict]:
    rng = random.Random(5)

    def text(n):
        return " ".join(rng.choice(WORDS) for _ in range(n))
    return [{
        "paper_id": f"p{i:05d}",
        "title": text(rng.randint(2, 4)),
        "abstract": text(rng.randint(4, 9)),
        "body_text": [{"section": "s", "text": text(rng.randint(5, 12))}],
        "publish_time": f"20{rng.randint(19, 22)}-01-01",
        "journal": "J",
        "authors": [{"first": "A", "last": "B"}],
        "tables": [],
        "figures": [],
    } for i in range(count)]


#: The largest sequence the strategy can draw: a 10-paper base plus
#: 60 commits of 40.
PAPERS = _papers(10 + 60 * 40)


def _pages(engine):
    return [[(hit.paper_id, hit.score) for hit in engine.search(q).results]
            for q in QUERIES]


def _snapshot(index):
    total, entries = index.rank(SPEC, 10)
    return (total, entries, index.fetch(entries, {"paper_id": 1}),
            list(index.segments))


def _check_shape(index, collection_size):
    sizes = [segment.num_rows for segment in index.segments]
    offsets = [segment.offset for segment in index.segments]
    assert offsets == [sum(sizes[:k]) for k in range(len(sizes))]
    assert sum(sizes) == index.num_rows == collection_size
    deltas = sizes[1:]
    assert all(deltas), sizes
    assert all(older >= 2 * newer
               for older, newer in zip(deltas, deltas[1:])), sizes
    assert index.delta_rows == sum(deltas)
    assert index.delta_segments \
        <= index.delta_rows.bit_length()  # ⌊log2(rows)⌋ + 1
    for segment in index.segments:
        assert len(segment.documents) == segment.num_rows


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=1, max_value=40), st.booleans()),
    min_size=1, max_size=60,
))
def test_delta_tier_stays_geometric_and_answers_like_one_build(commits):
    """``commits``: (papers in the commit, refresh the index after it)."""
    engine = AllFieldsEngine(FunctionRegistry())
    corpus = engine.corpus
    engine.add_papers(PAPERS[:10])
    base = corpus.columnar_index().segments[0]
    added = 10
    for number, (batch, refresh) in enumerate(commits, start=1):
        engine.add_papers(PAPERS[added:added + batch])
        added += batch
        if not refresh and number < len(commits):
            continue
        before = corpus._columnar
        held = _snapshot(before)
        index = corpus.columnar_index()

        assert index is not before
        assert index.segments[0] is base
        _check_shape(index, added)
        assert _snapshot(before) == held  # the old object's old answers
        # Rows are carried over, never copied again.
        carried = [doc for segment in before.segments
                   for doc in segment.documents]
        assert all(new is old for new, old in zip(
            (doc for segment in index.segments
             for doc in segment.documents), carried))

    folded = _pages(engine)
    corpus._columnar = columnar.build_index(
        corpus.collection, ALL_SEARCH_FIELDS, corpus._stamp())
    assert _pages(engine) == folded  # a one-shot build
    engine.use_columnar = False
    assert _pages(engine) == folded  # the scalar pipeline


def test_pages_equal_a_one_shot_build_after_every_fold():
    """4-paper commits, the benchmark's shape: every refresh checked."""
    engine = AllFieldsEngine(FunctionRegistry())
    corpus = engine.corpus
    engine.add_papers(PAPERS[:20])
    corpus.columnar_index()
    depths = []
    for added in range(24, 20 + 4 * 33, 4):
        engine.add_papers(PAPERS[added - 4:added])
        folded = _pages(engine)
        index = corpus.columnar_index()
        _check_shape(index, added)
        depths.append(index.delta_segments)

        corpus._columnar = columnar.build_index(
            corpus.collection, ALL_SEARCH_FIELDS, corpus._stamp())
        assert _pages(engine) == folded, added
        engine.use_columnar = False
        assert _pages(engine) == folded, added
        engine.use_columnar = True
        corpus._columnar = index
    # One segment per set bit of the commit count: 1, 1, 2, 1, 2, 2, 3 …
    assert depths == [bin(k).count("1") for k in range(1, 33)]


def test_non_append_mutation_after_folds_rebuilds():
    engine = AllFieldsEngine(FunctionRegistry())
    corpus = engine.corpus
    engine.add_papers(PAPERS[:20])
    base = corpus.columnar_index()
    for added in range(24, 48, 4):
        engine.add_papers(PAPERS[added - 4:added])
        corpus.columnar_index()
    folded = corpus.columnar_index()
    assert folded.segments[0] is base.segments[0]
    assert [s.num_rows for s in folded.segments] == [20, 16, 8]

    engine.collection.advance_version(engine.collection.version + 1)
    rebuilt = corpus.columnar_index()
    assert rebuilt.delta_segments == 0
    assert rebuilt.segments[0] is not base.segments[0]
    assert rebuilt.num_rows == 44
