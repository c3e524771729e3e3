"""Engine 2: search over all publication fields (Section 2.1.2, Figure 2).

"If the user is unsure of where exactly the term may be ... then search
over all fields is a good fit."  Results carry per-field excerpts (abstract,
body text, table captions, table text, figure captions) that the web UI
expands and collapses.
"""

from __future__ import annotations

from repro.search.columnar import MatchPlan
from repro.search.engine import SearchEngineBase, SearchResult, SearchResults
from repro.search.indexing import ALL_SEARCH_FIELDS
from repro.search.query import parse_query
from repro.search.snippets import field_snippets


class AllFieldsEngine(SearchEngineBase):
    """Full-document search with per-field excerpt formatting."""

    def search(self, query: str, page: int = 1) -> SearchResults:
        parsed = parse_query(query)
        paged, total, seconds = self._run_pipeline(
            parsed,
            MatchPlan.terms_over_fields(parsed, ALL_SEARCH_FIELDS,
                                        expander=self.expander),
            ALL_SEARCH_FIELDS, page,
        )
        results = []
        for document in paged.documents:
            search_fields = document.get("search", {})
            results.append(SearchResult(
                paper_id=document.get("paper_id", ""),
                title=document.get("title", ""),
                score=float(document.get("score", 0.0)),
                snippets=field_snippets({
                    "title": search_fields.get("title", ""),
                    "abstract": search_fields.get("abstract", ""),
                    "body": search_fields.get("body", ""),
                    "table_captions": search_fields.get(
                        "table_captions", ""
                    ),
                    "table_text": search_fields.get("table_text", ""),
                    "figure_captions": search_fields.get(
                        "figure_captions", ""
                    ),
                }, parsed),
                extras={
                    "journal": document.get("journal", ""),
                    "publish_time": document.get("publish_time", ""),
                },
            ))
        return SearchResults(
            query=query, page=page, total_matches=total,
            results=results, seconds=seconds, stage_stats=paged.stages,
        )
