"""Flatten papers into searchable documents for the docstore.

Nested structures (body sections, table grids) are materialized into flat
text fields under ``search.*`` at ingest time so the engines' ``$match``
regex stages and ranking functions can address them with simple dotted
paths — the same shape the paper's parsed-JSON publication store has.
"""

from __future__ import annotations

from typing import Any

from repro.corpus.schema import validate_paper

#: Flat search fields and their ranking weights (title counts most, body
#: least — the ranking "incorporates ... which field the term was matched
#: in").
FIELD_WEIGHTS: dict[str, float] = {
    "search.title": 3.0,
    "search.abstract": 2.0,
    "search.table_captions": 1.5,
    "search.figure_captions": 1.2,
    "search.table_text": 1.0,
    "search.body": 1.0,
}

ALL_SEARCH_FIELDS = list(FIELD_WEIGHTS)


def field_text(document: dict[str, Any], dotted: str) -> str:
    """The text of one (dotted) search field; list values are joined.

    The single reader every analysis pass shares — TF-IDF document
    frequencies, the scalar scorer and the columnar postings must all
    count exactly the same tokens.
    """
    value: Any = document
    for part in dotted.split("."):
        if not isinstance(value, dict):
            return ""
        value = value.get(part, "")
    if isinstance(value, list):
        return " ".join(str(part) for part in value)
    return value if isinstance(value, str) else ""


def build_search_document(paper: dict[str, Any]) -> dict[str, Any]:
    """A paper document augmented with flattened ``search.*`` fields."""
    paper = validate_paper(paper)
    body = " ".join(
        section.get("text", "") for section in paper["body_text"]
    )
    table_captions = " ".join(
        table.get("caption", "") for table in paper["tables"]
    )
    table_text = " ".join(
        cell.get("text", "")
        for table in paper["tables"]
        for row in table.get("rows", [])
        for cell in row.get("cells", [])
    )
    figure_captions = " ".join(
        figure.get("caption", "") for figure in paper["figures"]
    )
    document = dict(paper)
    document["search"] = {
        "title": paper["title"],
        "abstract": paper["abstract"],
        "body": body,
        "table_captions": table_captions,
        "table_text": table_text,
        "figure_captions": figure_captions,
    }
    # Static ranking features (see RankingFunction): newer publications and
    # table-rich publications get a mild boost.
    document["static_rank"] = {
        "year": int(str(paper["publish_time"])[:4]),
        "num_tables": len(paper["tables"]),
        "num_authors": len(paper["authors"]),
    }
    return document
