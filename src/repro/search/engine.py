"""Shared search-engine machinery: pipeline evaluation and pagination.

Pipeline shape (paper Section 2.1, verbatim design):

1. ``$match`` **first**, with stemmed-regex filters, "to minimize the
   amount of data being passed through all the latter stages";
2. ``$project`` keeping "only ... fields that were necessary for carrying
   out calculations and printing to the screen";
3. a custom ``$function`` stage deriving the ranking score per document;
4. ranking by score, then pagination "as a list of ten per page".

Step 4 no longer fully sorts the match set: serving page ``p`` only
requires the top ``p * PAGE_SIZE`` candidates, so the hot path keeps a
``heapq``-bounded selection (O(n log k)) instead of the full ``$sort``
(O(n log n)).  Ordering is exact and deterministic — score descending,
then ``paper_id`` ascending as the tie-break — so the top-k page is
byte-identical to what the full sort would emit (``full_sort = True``
restores the reference path; the differential tests compare the two).

When a query is expressible as batch array operations the whole
match/score/top-k path instead runs on the columnar numpy kernels of
:mod:`repro.search.columnar` — byte-identical results, no per-document
Python — falling back to the scalar pipeline for quoted phrases,
synonym expansion, or custom ranking functions.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any

from repro.docstore.aggregation import (
    AggregationResult,
    StageStats,
    aggregate,
    top_k_documents,
)
from repro.docstore.functions import FunctionRegistry
from repro.errors import QueryError
from repro.search import columnar
from repro.search.corpus import SearchCorpus
from repro.search.indexing import ALL_SEARCH_FIELDS
from repro.search.query import ParsedQuery
from repro.search.ranking import BM25RankingFunction, RankingFunction

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

    def __init__(self, registry: FunctionRegistry | None = None,
                 expander=None, ranker: str = "tfidf",
                 bm25_k1: float = 1.5, bm25_b: float = 0.75,
                 corpus: SearchCorpus | None = None) -> None:
        self.corpus = SearchCorpus() if corpus is None else corpus
        self.collection = self.corpus.collection
        self.tfidf = self.corpus.tfidf
        self.registry = registry or FunctionRegistry()
        self.expander = expander
        self.ranker = ranker
        if ranker == "bm25":
            self.ranking: RankingFunction = BM25RankingFunction(
                self.tfidf, expander=expander,
                stats=self.corpus.field_stats, k1=bm25_k1, b=bm25_b,
            )
        elif ranker == "tfidf":
            self.ranking = RankingFunction(self.tfidf, expander=expander)
        else:
            raise QueryError(
                f"unknown ranker {ranker!r} (expected 'tfidf' or 'bm25')"
            )
        self._rank_serial = itertools.count(1)

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
            StageStats(f"$columnar({spec.ranker})", index.num_rows,
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
        ``$match``/``$project``/``$function`` prefix.  Ranking then
        takes the top-k path — a bounded heap of the ``page * PAGE_SIZE``
        best candidates — unless ``full_sort`` asks for the reference
        full ``$sort``.
        """
        if page < 1:
            raise QueryError("pages are 1-based")
        skip = (page - 1) * PAGE_SIZE
        top_k = page * PAGE_SIZE
        if self.use_columnar and not self.full_sort:
            spec = columnar.build_query_spec(
                parsed, match_plan, rank_fields, self.ranking,
                ALL_SEARCH_FIELDS,
            )
            if spec is not None:
                started = time.perf_counter()
                # One atomic snapshot per query: the same index object
                # serves candidate ranking *and* page fetch, so a
                # concurrent ingest can refresh the corpus's snapshot
                # without a half-updated view ever being observable.
                index = self.corpus.columnar_index()
                paged, total = self._rank_columnar(index, spec, skip,
                                                   top_k)
                return paged, total, time.perf_counter() - started
        # A per-invocation name: concurrent queries against the same
        # engine (the serving tier runs readers in parallel) must not
        # overwrite each other's scorer between register and evaluate.
        function_name = f"rank_{id(self)}_{next(self._rank_serial)}"
        self.registry.register(
            function_name, self.ranking.scorer(parsed, rank_fields)
        )
        started = time.perf_counter()
        prefix = [
            {"$match": match_plan.match_document()},
            {"$project": {name: 1 for name in PROJECTED_FIELDS}},
            {"$function": {"name": function_name, "as": "score"}},
        ]
        try:
            paged, total = self._rank_local(prefix, skip, top_k)
        finally:
            self.registry.unregister(function_name)
        seconds = time.perf_counter() - started
        return paged, total, seconds

    def _rank_local(self, prefix: list[dict[str, Any]], skip: int,
                    top_k: int) -> tuple[AggregationResult, int]:
        """Scalar ranking: prefix, then top-k (or full sort)."""
        matched = aggregate(self.collection, prefix, self.registry)
        total = len(matched.documents)
        if self.full_sort:
            ranked = aggregate(
                matched.documents, [{"$sort": SORT_SPEC}], self.registry
            )
            return AggregationResult(
                ranked.documents[skip:skip + PAGE_SIZE],
                matched.stages + ranked.stages,
            ), total
        heap_started = time.perf_counter()
        page_documents = top_k_documents(
            matched.documents, SORT_SPEC, top_k
        )[skip:]
        stages = matched.stages + [StageStats(
            "$sort(top-k)", total, len(page_documents),
            time.perf_counter() - heap_started,
        )]
        return AggregationResult(page_documents, stages), total
