"""CORD-19-style paper schema and validation.

A paper document is a plain JSON dict with the fields the real CORD-19
parse exposes (plus a ``ground_truth`` block only the synthetic generator
fills, used to score experiments):

.. code-block:: python

    {
        "paper_id": "cord-0000042",
        "title": str,
        "abstract": str,
        "authors": [{"first": str, "last": str}],
        "publish_time": "YYYY-MM-DD",
        "journal": str,
        "body_text": [{"section": str, "text": str}],
        "tables": [{"caption": str, "html": str,
                    "rows": [{"cells": [{...}], "is_metadata": bool}]}],
        "figures": [{"caption": str}],
        "ground_truth": {            # generator-only, never indexed
            "topic": str,
            "vaccines": [str], "strains": [str], "side_effects": [str],
        },
    }
"""

from __future__ import annotations

import re
from typing import Any

from repro.errors import SchemaError

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

REQUIRED_FIELDS = ("paper_id", "title", "abstract", "authors",
                   "publish_time", "journal", "body_text", "tables",
                   "figures")


def validate_paper(paper: Any) -> dict[str, Any]:
    """Check ``paper`` against the schema; returns it unchanged when valid."""
    if not isinstance(paper, dict):
        raise SchemaError(f"paper must be a dict, got {type(paper)}")
    for field in REQUIRED_FIELDS:
        if field not in paper:
            raise SchemaError(f"paper missing required field {field!r}")
    if not isinstance(paper["paper_id"], str) or not paper["paper_id"]:
        raise SchemaError("paper_id must be a non-empty string")
    if not isinstance(paper["title"], str):
        raise SchemaError("title must be a string")
    if not isinstance(paper["abstract"], str):
        raise SchemaError("abstract must be a string")
    if not _DATE_RE.match(str(paper["publish_time"])):
        raise SchemaError(
            f"publish_time must be YYYY-MM-DD, got {paper['publish_time']!r}"
        )
    if not isinstance(paper["authors"], list):
        raise SchemaError("authors must be a list")
    for author in paper["authors"]:
        if not isinstance(author, dict) or "last" not in author:
            raise SchemaError(f"malformed author entry {author!r}")
    if not isinstance(paper["body_text"], list):
        raise SchemaError("body_text must be a list")
    for section in paper["body_text"]:
        if (not isinstance(section, dict) or "section" not in section
                or "text" not in section):
            raise SchemaError(f"malformed body_text entry {section!r}")
    if not isinstance(paper["tables"], list):
        raise SchemaError("tables must be a list")
    for position, table in enumerate(paper["tables"]):
        # The one statement of the table shape every table reader assumes.
        rows = table.get("rows") if isinstance(table, dict) else None
        if not isinstance(rows, list):
            raise SchemaError(f"table {position}: rows must be a list")
        for index, row in enumerate(rows):
            cells = row.get("cells") if isinstance(row, dict) else None
            if not isinstance(cells, list) or not all(
                    isinstance(cell, dict) for cell in cells):
                raise SchemaError(f"table {position} row {index}: must be "
                                  "a dict whose cells are a list of dicts")
        html = table.get("html")
        if html is not None and not isinstance(html, str):
            raise SchemaError(f"table {position}: html must be a string")
    if not isinstance(paper["figures"], list):
        raise SchemaError("figures must be a list")
    for figure in paper["figures"]:
        if not isinstance(figure, dict) or "caption" not in figure:
            raise SchemaError(f"malformed figure entry {figure!r}")
    return paper


def full_text(paper: dict[str, Any]) -> str:
    """All searchable text of a paper, concatenated (for vocabularies)."""
    parts = [paper.get("title", ""), paper.get("abstract", "")]
    for section in paper.get("body_text", []):
        parts.append(section.get("text", ""))
    for table in paper.get("tables", []):
        parts.append(table.get("caption", ""))
    for figure in paper.get("figures", []):
        parts.append(figure.get("caption", ""))
    return " ".join(part for part in parts if part)
