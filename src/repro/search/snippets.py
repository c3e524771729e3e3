"""Snippet extraction and term highlighting for result pages.

Result pages display "brief snippets of the document" with matched terms
highlighted (rendered in red in the web UI — Figure 4); here highlights
are marked ``[[term]]`` so any front end can restyle them.
"""

from __future__ import annotations

import re

from repro.search.query import ParsedQuery

HIGHLIGHT_OPEN = "[["
HIGHLIGHT_CLOSE = "]]"

#: Characters of context kept on each side of the first match.
SNIPPET_RADIUS = 80


def _mark(match: re.Match[str]) -> str:
    return f"{HIGHLIGHT_OPEN}{match.group(0)}{HIGHLIGHT_CLOSE}"


def highlight(text: str, parsed: ParsedQuery) -> str:
    """Wrap every query-term match in highlight markers."""
    if not text:
        return ""
    return parsed.matcher.sub(_mark, text)


def first_match_span(text: str, parsed: ParsedQuery) -> tuple[int, int] | None:
    """(start, end) of the earliest term match in ``text``."""
    match = parsed.matcher.search(text)
    return match.span() if match else None


def snippet(text: str, parsed: ParsedQuery,
            radius: int = SNIPPET_RADIUS) -> str:
    """A highlighted excerpt around the first match (empty if no match)."""
    if not text:
        return ""
    span = first_match_span(text, parsed)
    if span is None:
        return ""
    start = max(0, span[0] - radius)
    end = min(len(text), span[1] + radius)
    # Snap to word boundaries so excerpts do not cut words in half.
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    while end < len(text) and not text[end].isspace():
        end += 1
    excerpt = text[start:end].strip()
    prefix = "..." if start > 0 else ""
    suffix = "..." if end < len(text) else ""
    return prefix + highlight(excerpt, parsed) + suffix


def field_snippets(document_fields: dict[str, str],
                   parsed: ParsedQuery) -> dict[str, str]:
    """Per-field snippets, omitting fields with no match."""
    result = {}
    for name, text in document_fields.items():
        excerpt = snippet(text or "", parsed)
        if excerpt:
            result[name] = excerpt
    return result
