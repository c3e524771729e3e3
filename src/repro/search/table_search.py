"""Engine 3: search over paper tables (Section 2.1.3, Figure 4).

"These search results are a product of regular expression search over
table captions and all of the table's data."  Each hit lists the matching
tables with the matched cells highlighted (the web UI renders them in
red), ranked by "an advanced ranking function having both static and
dynamic features" — here the shared :class:`RankingFunction` restricted to
the table fields, plus a per-table cell-hit count.
"""

from __future__ import annotations

from itertools import chain
from typing import Any

from repro.search.columnar import MatchPlan
from repro.search.engine import SearchEngineBase, SearchResult, SearchResults
from repro.search.query import ParsedQuery, PrefixMatcher, parse_query
from repro.search.snippets import highlight, snippet

_TABLE_FIELDS = ["search.table_captions", "search.table_text"]


def _term_counts(texts: list[str], parsed: ParsedQuery) -> list[int]:
    """How many query terms (repeats counted) match each of ``texts``."""
    matcher = parsed.matcher
    if isinstance(matcher, PrefixMatcher):
        return matcher.term_counts(texts)
    # Most cells match no term: one any-term search rejects them; only a
    # matching cell is counted term by term.
    patterns = [term.regex() for term in parsed.terms]
    return [sum(1 for p in patterns if p.search(text))
            if matcher.search(text) else 0 for text in texts]


def _matching_tables(document: dict[str, Any],
                     parsed: ParsedQuery) -> list[dict[str, Any]]:
    """Tables of ``document`` with at least one matching caption or cell."""
    matches = []
    for table in document.get("tables", []):
        caption = table.get("caption", "")
        rows = [[cell.get("text", "") for cell in row.get("cells", [])]
                for row in table.get("rows", [])]
        caption_count, *counts = _term_counts(
            [caption, *chain.from_iterable(rows)], parsed
        )
        cell_hits = sum(counts)
        if caption_count or cell_hits:
            counted = iter(counts)
            matches.append({
                "table_id": table.get("table_id"),
                "caption": highlight(caption, parsed),
                "rows": [[highlight(text, parsed) if next(counted) else text
                          for text in row] for row in rows],
                "cell_hits": cell_hits,
                "caption_hit": caption_count > 0,
            })
    # Most relevant tables first: caption match outranks raw cell count.
    matches.sort(
        key=lambda m: (m["caption_hit"], m["cell_hits"]), reverse=True
    )
    return matches


class TableSearchEngine(SearchEngineBase):
    """Structural search over table captions and table data."""

    def search(self, query: str, page: int = 1) -> SearchResults:
        parsed = parse_query(query)
        paged, total, seconds = self._run_pipeline(
            parsed, MatchPlan.terms_over_fields(parsed, _TABLE_FIELDS),
            _TABLE_FIELDS, page,
        )
        results = []
        for document in paged.documents:
            tables = _matching_tables(document, parsed)
            search_fields = document.get("search", {})
            snippets = {}
            abstract_excerpt = snippet(
                search_fields.get("abstract", ""), parsed
            )
            if abstract_excerpt:
                snippets["abstract"] = abstract_excerpt
            results.append(SearchResult(
                paper_id=document.get("paper_id", ""),
                title=document.get("title", ""),
                score=float(document.get("score", 0.0)),
                snippets=snippets,
                extras={"tables": tables},
            ))
        return SearchResults(
            query=query, page=page, total_matches=total,
            results=results, seconds=seconds, stage_stats=paged.stages,
        )
