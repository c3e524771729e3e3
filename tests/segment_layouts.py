"""Explicit columnar segment layouts for the differential suites.

``ColumnarIndex.extend`` folds small trailing deltas into the arriving
run, so ingesting in N batches no longer leaves N segments.  A test
that wants "base + 15 deltas" states the split points instead.
"""

from __future__ import annotations

from typing import Sequence

from repro.search.columnar import ColumnarIndex, Segment
from repro.search.corpus import SearchCorpus
from repro.search.indexing import ALL_SEARCH_FIELDS


def install_segments(corpus: SearchCorpus,
                     bounds: Sequence[int]) -> ColumnarIndex:
    """Serve ``corpus`` from one segment per ``bounds[i]:bounds[i + 1]``.

    ``bounds`` runs from 0 to the collection's size; the first slice is
    the base, the rest are deltas.  The index carries the corpus's
    current stamp, so the next ``columnar_index()`` returns it as is.
    """
    rows = list(corpus.collection.all_documents())
    assert bounds[0] == 0 and bounds[-1] == len(rows), bounds
    fields = tuple(ALL_SEARCH_FIELDS)
    index = ColumnarIndex(
        corpus._stamp(),
        [Segment(rows[start:stop], fields, start)
         for start, stop in zip(bounds, bounds[1:])],
        fields,
    )
    corpus._columnar = index
    return index
