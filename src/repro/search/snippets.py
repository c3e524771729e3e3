"""Snippet extraction and term highlighting for result pages.

Result pages display "brief snippets of the document" with matched terms
highlighted (rendered in red in the web UI — Figure 4); here highlights
are marked ``[[term]]`` so any front end can restyle them.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.search.query import ParsedQuery, PrefixMatcher, run_span

HIGHLIGHT_OPEN = "[["
HIGHLIGHT_CLOSE = "]]"

#: Characters of context kept on each side of the first match.
SNIPPET_RADIUS = 80

#: ``sub``'s template for the compiled alternation: the match, marked.
_MARKED = HIGHLIGHT_OPEN + r"\g<0>" + HIGHLIGHT_CLOSE


def _mark(text: str, spans: list[tuple[int, int]], start: int = 0,
          stop: int | None = None) -> str:
    """``text[start:stop]`` with each of ``spans`` (offsets into
    ``text``, in order, inside the slice) wrapped in markers."""
    pieces = []
    last = start
    for left, right in spans:
        pieces += (text[last:left], HIGHLIGHT_OPEN, text[left:right],
                   HIGHLIGHT_CLOSE)
        last = right
    pieces.append(text[last:stop])
    return "".join(pieces)


def highlight(text: str, parsed: ParsedQuery) -> str:
    """Wrap every query-term match in highlight markers."""
    if not text:
        return ""
    matcher = parsed.matcher
    if not isinstance(matcher, PrefixMatcher):
        return matcher.sub(_MARKED, text)
    return _mark(text, matcher.spans(text))


def snippet(text: str, parsed: ParsedQuery,
            radius: int = SNIPPET_RADIUS) -> str:
    """A highlighted excerpt around the first match (empty if no match).

    A :class:`PrefixMatcher` scans the field once: its matches are whole
    ``\\w+`` runs and the excerpt is cut at whitespace, so the matches
    starting inside the excerpt are the excerpt's own.  The regex
    matcher finds the first match with ``search`` and marks the excerpt
    with ``sub``: a phrase can match across the excerpt's end, and the
    excerpt must not mark what it cut.
    """
    if not text:
        return ""
    matcher = parsed.matcher
    if isinstance(matcher, PrefixMatcher):
        starts = matcher.starts(text)
        if not starts:
            return ""
        first = run_span(text, starts[0])
    else:
        match = matcher.search(text)
        if match is None:
            return ""
        first = match.span()
    start = max(0, first[0] - radius)
    end = min(len(text), first[1] + radius)
    # Snap to word boundaries so excerpts do not cut words in half.
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    while end < len(text) and not text[end].isspace():
        end += 1
    prefix = "..." if start > 0 else ""
    suffix = "..." if end < len(text) else ""
    if not isinstance(matcher, PrefixMatcher):
        return prefix + matcher.sub(_MARKED, text[start:end].strip()) \
            + suffix
    # Strip the cut as ``str.strip`` does; no match starts before it.
    while text[start].isspace():
        start += 1
    while text[end - 1].isspace():
        end -= 1
    spans = [run_span(text, at) for at in starts[:bisect_left(starts, end)]]
    return prefix + _mark(text, spans, start, end) + suffix


def field_snippets(document_fields: dict[str, str],
                   parsed: ParsedQuery) -> dict[str, str]:
    """Per-field snippets, omitting fields with no match."""
    result = {}
    for name, text in document_fields.items():
        excerpt = snippet(text or "", parsed)
        if excerpt:
            result[name] = excerpt
    return result
