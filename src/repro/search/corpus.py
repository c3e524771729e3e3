"""The analysed publication corpus the three search engines share.

The paper's design is one parsed-publication store queried by three
pipeline-expressed engines (Section 2.1): the engines differ in what
they match, rank and format, not in what they index.  A
:class:`SearchCorpus` therefore holds what is a function of the
documents alone — TF-IDF document frequencies and the version-stamped
columnar posting snapshot — over the sharded store whose rows *are* the
flattened ``search.*`` documents, so each paper is validated,
flattened, tokenized, stemmed, stored and column-indexed once, however
many engines read it.  An engine built without a corpus makes its own
over a one-shard store.
"""

from __future__ import annotations

from typing import Any

from repro.docstore.sharding import ShardedCollection
from repro.search import columnar
from repro.search.indexing import (
    ALL_SEARCH_FIELDS,
    build_search_document,
    field_text,
)
from repro.text.stemmer import stem
from repro.text.tfidf import TfIdfModel
from repro.text.tokenizer import tokenize


class SearchCorpus:
    """Index-side state over one store: term statistics, columnar postings."""

    def __init__(self, collection: ShardedCollection | None = None) -> None:
        self.collection = collection if collection is not None else \
            ShardedCollection("publications", shard_key="paper_id",
                              num_shards=1)
        # The columnar prefilter names its rows by paper_id (a no-op on
        # a store that already indexes it).
        self.collection.create_index("paper_id")
        self.tfidf = TfIdfModel()
        # Version-stamped columnar index; refreshed lazily whenever the
        # docstore/model stamp moves — extended with delta segments for
        # append-only motion, fully rebuilt otherwise.  A refresh race
        # between readers merely duplicates work (assignment is atomic;
        # both builds see the same snapshot) — ingest vs read is
        # serialized by the serving tier's data lock, as for every other
        # read path.
        self._columnar: columnar.ColumnarIndex | None = None

    # -- ingest -------------------------------------------------------------

    def add_paper(self, paper: dict[str, Any]) -> None:
        """Store one CORD-19-style paper as its search document; index it.

        Insert first: a paper the store refuses leaves the model as is.
        """
        document = build_search_document(paper)
        stems = []
        for field_name in ALL_SEARCH_FIELDS:
            stems.extend(
                stem(token)
                for token in tokenize(field_text(document, field_name))
            )
        self.collection.insert_one(document)
        self.tfidf.add_document_tokens(stems)

    def add_papers(self, papers: list[dict[str, Any]]) -> None:
        for paper in papers:
            self.add_paper(paper)

    # -- columnar snapshot ----------------------------------------------------

    def _stamp(self) -> tuple[int, int, tuple[int, ...]]:
        return columnar.stamp_for(self.collection, self.tfidf.num_documents)

    def _build_index(self, stamp: tuple[int, int, tuple[int, ...]]
                     ) -> columnar.ColumnarIndex:
        return columnar.build_index(self.collection, ALL_SEARCH_FIELDS, stamp)

    @staticmethod
    def _append_only_delta(old: tuple[int, ...],
                           new: tuple[int, ...]) -> bool:
        """True when the stamp moved by document inserts alone.

        ``add_paper`` bumps the store version and the model's document
        count in lockstep (+1 each per paper).  The store is insert-only,
        so the one move that fails this check and forces a full rebuild
        is ``advance_version``.  Its callers, reload and rollback, advance
        a store whose corpus has no index yet — so in a running system
        only the first build and :meth:`merge_segments` rebuild.  The
        check stays as the guard against any version move without a
        matching insert.
        """
        return new[0] - old[0] == new[1] - old[1] > 0

    def columnar_index(self) -> columnar.ColumnarIndex:
        """One consistent columnar snapshot for the calling query.

        The returned index object is immutable: callers must do their
        whole rank + page fetch against it rather than re-fetching
        mid-query, so a concurrent refresh can never swap the arrays
        out from under a running kernel.  When the stamp advanced by
        inserts alone the refresh is incremental — the new rows (and
        any smaller trailing deltas they fold in, see
        ``ColumnarIndex.extend``) are tokenized into a delta segment;
        anything else rebuilds from scratch.
        """
        stamp = self._stamp()
        index = self._columnar
        if index is not None and index.stamp == stamp:
            return index
        if index is not None and self._append_only_delta(index.stamp,
                                                         stamp):
            index = index.extend(self.collection, stamp)
        else:
            index = self._build_index(stamp)
        self._columnar = index
        return index

    @property
    def delta_rows(self) -> int:
        """Rows currently served from delta segments (merge debt)."""
        index = self._columnar
        return index.delta_rows if index is not None else 0

    @property
    def delta_segments(self) -> int:
        """Segments a search visits beyond the base."""
        index = self._columnar
        return index.delta_segments if index is not None else 0

    def merge_segments(self) -> bool:
        """Fold delta segments back into one base segment.

        A full rebuild at the current stamp, swapped in with one atomic
        assignment — in-flight queries keep their old snapshot; the
        merged index answers byte-identically (the differential tests
        assert it), so the streaming-ingest tier runs this under the
        *read* side of the serving data lock.  Returns whether a new
        index was installed.
        """
        index = self._columnar
        if index is None:
            return False
        stamp = self._stamp()
        if index.stamp == stamp and index.delta_segments == 0:
            return False
        self._columnar = self._build_index(stamp)
        return True
