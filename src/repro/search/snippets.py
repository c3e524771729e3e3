"""Snippet extraction and term highlighting for result pages.

Result pages display "brief snippets of the document" with matched terms
highlighted (rendered in red in the web UI — Figure 4); here highlights
are marked ``[[term]]`` so any front end can restyle them.
"""

from __future__ import annotations

from repro.search.query import ParsedQuery, PrefixMatcher

HIGHLIGHT_OPEN = "[["
HIGHLIGHT_CLOSE = "]]"

#: Characters of context kept on each side of the first match.
SNIPPET_RADIUS = 80

#: ``sub``'s template for the compiled alternation: the match, marked.
_MARKED = HIGHLIGHT_OPEN + r"\g<0>" + HIGHLIGHT_CLOSE


def highlight(text: str, parsed: ParsedQuery) -> str:
    """Wrap every query-term match in highlight markers."""
    if not text:
        return ""
    matcher = parsed.matcher
    if not isinstance(matcher, PrefixMatcher):
        return matcher.sub(_MARKED, text)
    pieces = []
    last = 0
    for start, end in matcher.spans(text):
        pieces += (text[last:start], HIGHLIGHT_OPEN, text[start:end],
                   HIGHLIGHT_CLOSE)
        last = end
    pieces.append(text[last:])
    return "".join(pieces)


def first_match_span(text: str, parsed: ParsedQuery) -> tuple[int, int] | None:
    """(start, end) of the earliest term match in ``text``."""
    matcher = parsed.matcher
    if isinstance(matcher, PrefixMatcher):
        return matcher.first_span(text)
    match = matcher.search(text)
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
