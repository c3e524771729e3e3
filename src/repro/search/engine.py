"""Shared search-engine machinery: pipeline evaluation and pagination.

Pipeline shape (paper Section 2.1, verbatim design):

1. ``$match`` **first**, with stemmed-regex filters, "to minimize the
   amount of data being passed through all the latter stages";
2. ``$project`` keeping "only ... fields that were necessary for carrying
   out calculations and printing to the screen";
3. a custom ``$function`` stage deriving the ranking score per document;
4. ranking by score, then pagination "as a list of ten per page".

The pipeline runs over the sharded publication store itself
(``engine.collection``), through its scatter-gather.  Step 4 no longer
fully sorts the match set: serving page ``p`` only requires the top
``p * PAGE_SIZE`` candidates, so the store keeps a ``heapq``-bounded
selection per shard and merges those (O(n log k)) instead of the full
``$sort`` (O(n log n)).  Ordering is exact and deterministic — score
descending, then ``paper_id`` ascending as the tie-break — so the top-k
page is byte-identical to what the full sort would emit (``full_sort =
True`` restores the reference path; the differential tests compare the
two).

When a query is expressible as batch array operations the whole
match/score/top-k path instead runs on the columnar numpy kernels of
:mod:`repro.search.columnar` — byte-identical results, no per-document
Python — falling back to the scalar pipeline for quoted phrases,
synonym expansion, or custom ranking functions.  The fallback does not
scan for its matches: the columnar snapshot's atom dictionaries name a
superset of them (:meth:`~repro.search.columnar.ColumnarIndex.candidate_ids`),
and a ``{"paper_id": {"$in": ids}}`` conjunct in front of the unchanged
``$match`` lets the store read only those rows, each still decided by
the full regex filter.  ``use_columnar = False`` and ``full_sort = True``
keep the unindexed scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.docstore.aggregation import (
    AggregationResult,
    StageStats,
    aggregate,
)
from repro.errors import QueryError
from repro.search import columnar
from repro.search.corpus import SearchCorpus
from repro.search.indexing import ALL_SEARCH_FIELDS
from repro.search.query import ParsedQuery
from repro.search.ranking import RankingFunction

PAGE_SIZE = 10

#: Deterministic result order: score descending, ``paper_id`` tie-break.
SORT_SPEC = {"score": -1, "paper_id": 1}

#: Fields every engine projects (id, display fields, ranking inputs).
PROJECTED_FIELDS = [
    "paper_id", "title", "abstract", "authors", "publish_time", "journal",
    "search", "static_rank", "tables",
]


@dataclass
class SearchResult:
    """One ranked hit with its display payload."""

    paper_id: str
    title: str
    score: float
    snippets: dict[str, str] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)


@dataclass
class SearchResults:
    """One page of results plus evaluation metadata."""

    query: str
    page: int
    total_matches: int
    results: list[SearchResult]
    seconds: float
    stage_stats: list[Any] = field(default_factory=list)

    @property
    def num_pages(self) -> int:
        return (self.total_matches + PAGE_SIZE - 1) // PAGE_SIZE

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class SearchEngineBase:
    """Pipeline evaluation over a corpus; engines define match/rank/format.

    Everything that depends on the documents alone lives on the
    :class:`~repro.search.corpus.SearchCorpus`; pass one ``corpus`` to
    several engines to analyse each paper once (``CovidKG`` does).
    """

    #: Reference path for differential tests: full ``$sort`` instead of
    #: the bounded top-k selection.  Results are identical either way.
    full_sort: bool = False

    #: Engage the columnar numpy kernels whenever a query is eligible
    #: (see :func:`repro.search.columnar.build_query_spec`); ``False``
    #: forces the scalar ``$match``/``$project``/``$function`` pipeline.
    use_columnar: bool = True

    def __init__(self, expander=None,
                 corpus: SearchCorpus | None = None) -> None:
        self.corpus = SearchCorpus() if corpus is None else corpus
        self.collection = self.corpus.collection
        self.tfidf = self.corpus.tfidf
        # The expander's one owner: match and score both read it here.
        self.ranking = RankingFunction(self.tfidf, expander=expander)

    def add_paper(self, paper: dict[str, Any]) -> None:
        """Index one CORD-19-style paper into this engine's corpus."""
        self.corpus.add_paper(paper)

    def add_papers(self, papers: list[dict[str, Any]]) -> None:
        self.corpus.add_papers(papers)

    # -- evaluation -------------------------------------------------------------

    def _rank_columnar(self, index: columnar.ColumnarIndex,
                       spec: columnar.QuerySpec, skip: int,
                       top_k: int) -> tuple[AggregationResult, int]:
        """Kernel ranking: numpy match+score per segment, exact merge."""
        kernel_started = time.perf_counter()
        total, merged = index.rank(spec, top_k)
        page_entries = merged[skip:]
        documents = index.fetch(
            page_entries, {name: 1 for name in PROJECTED_FIELDS}
        )
        seconds = time.perf_counter() - kernel_started
        stages = [
            StageStats("$columnar(tfidf)", index.num_rows,
                       total, seconds),
            StageStats("$sort(top-k)", total, len(documents), 0.0),
        ]
        return AggregationResult(documents, stages), total

    def _run_pipeline(self, parsed: ParsedQuery,
                      match_plan: columnar.MatchPlan,
                      rank_fields: list[str],
                      page: int) -> tuple[AggregationResult, int, float]:
        """Execute the canonical pipeline; returns (page, total, seconds).

        ``match_plan`` is the one statement of what the query matches:
        a kernel-eligible query hands it to the columnar planner, every
        other query runs it as the ``$match`` document of the
        ``$match``/``$project``/``$function`` prefix, which the store
        runs on every shard that owns a candidate of the columnar
        prefilter.  Ranking then takes the top-k path — the store's
        per-shard bounded heaps of the ``page * PAGE_SIZE`` best
        candidates and one bounded merge that cuts the page — unless
        ``full_sort`` asks for the reference full ``$sort``.
        """
        if page < 1:
            raise QueryError("pages are 1-based")
        skip = (page - 1) * PAGE_SIZE
        top_k = page * PAGE_SIZE
        indexed = self.use_columnar and not self.full_sort
        spec = columnar.build_query_spec(
            parsed, match_plan, rank_fields, self.ranking, ALL_SEARCH_FIELDS,
        ) if indexed else None
        started = time.perf_counter()
        ids = None
        if indexed:
            # One atomic snapshot per query: the same index object
            # serves candidate ranking *and* page fetch, so a
            # concurrent ingest can refresh the corpus's snapshot
            # without a half-updated view ever being observable.
            index = self.corpus.columnar_index()
            if spec is not None:
                paged, total = self._rank_columnar(index, spec, skip,
                                                   top_k)
                return paged, total, time.perf_counter() - started
            ids = index.candidate_ids(match_plan.prefix_clauses())
        match = match_plan.match_document()
        if ids is not None:
            # The store reads only the rows the atom dictionaries
            # admit; the regex filter still decides each of them.
            match = {"paper_id": {"$in": ids}, **match}
        stages = [
            {"$match": match},
            {"$project": {name: 1 for name in PROJECTED_FIELDS}},
            {"$function": {"body": self.ranking.scorer(parsed, rank_fields),
                           "as": "score"}},
            {"$sort": SORT_SPEC},
        ]
        if not self.full_sort:
            stages += [{"$skip": skip}, {"$limit": PAGE_SIZE}]
        ranked = aggregate(self.collection, stages)
        seconds = time.perf_counter() - started
        # Every match is scored once.
        total = next(stats.docs_out for stats in ranked.stages
                     if stats.stage == "$function")
        if self.full_sort:
            ranked.documents = ranked.documents[skip:skip + PAGE_SIZE]
        return ranked, total, seconds
