"""Engine 1: search over paper title, abstract, and table captions
(Section 2.1.1).

Three independent search fields with *inclusive* semantics: "if a user
searches on a field there must be a document that matches at least one
term in that field or it does not get passed on to the next stage
regardless if there are matches over the other fields".  Results are
"formatted with table captions first, the title and authors and the full
abstract".
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.search.columnar import MatchPlan
from repro.search.engine import SearchEngineBase, SearchResult, SearchResults
from repro.search.query import ParsedQuery, parse_query
from repro.search.snippets import highlight, snippet

_FIELD_MAP = {
    "title": "search.title",
    "abstract": "search.abstract",
    "caption": "search.table_captions",
}


class TitleAbstractCaptionEngine(SearchEngineBase):
    """Three inclusive search fields: title / abstract / table captions."""

    def search(self, title: str | None = None, abstract: str | None = None,
               caption: str | None = None, page: int = 1) -> SearchResults:
        queries: dict[str, ParsedQuery] = {}
        if title:
            queries["title"] = parse_query(title)
        if abstract:
            queries["abstract"] = parse_query(abstract)
        if caption:
            queries["caption"] = parse_query(caption)
        if not queries:
            raise QueryError(
                "at least one of title/abstract/caption must be searched"
            )

        # Ranking uses the union of all entered terms over the three fields.
        merged = ParsedQuery(
            raw=" ".join(parsed.raw for parsed in queries.values()),
            terms=tuple(
                term for parsed in queries.values() for term in parsed.terms
            ),
        )
        rank_fields = [_FIELD_MAP[name] for name in queries]
        paged, total, seconds = self._run_pipeline(
            merged,
            # Inclusive fields: AND of per-field "at least one term"
            # clauses.
            MatchPlan.fields_over_terms([
                (_FIELD_MAP[name], parsed)
                for name, parsed in queries.items()
            ]),
            rank_fields, page,
        )

        results = []
        for document in paged.documents:
            search_fields = document.get("search", {})
            authors = ", ".join(
                f"{a.get('first', '')} {a.get('last', '')}".strip()
                for a in document.get("authors", [])
            )
            # Format order per the paper: captions, then title+authors,
            # then the full abstract.
            snippets = {}
            caption_excerpt = snippet(
                search_fields.get("table_captions", ""), merged
            )
            if caption_excerpt:
                snippets["table_captions"] = caption_excerpt
            snippets["title"] = highlight(
                search_fields.get("title", ""), merged
            )
            snippets["authors"] = authors
            snippets["abstract"] = highlight(
                search_fields.get("abstract", ""), merged
            )
            results.append(SearchResult(
                paper_id=document.get("paper_id", ""),
                title=document.get("title", ""),
                score=float(document.get("score", 0.0)),
                snippets=snippets,
            ))
        return SearchResults(
            query=merged.raw, page=page, total_matches=total,
            results=results, seconds=seconds, stage_stats=paged.stages,
        )
