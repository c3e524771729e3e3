"""Rule-based natural-language front end for KGQL.

The paper's interface answers a handful of recurring question shapes
("what are the side effects of the Pfizer vaccine?", "which papers link
masks and transmission?").  This module maps those shapes onto KGQL via
ordered regex templates — first match wins, entity slots are quoted
into label literals, and the produced query goes through the normal
parse/plan/execute path, so NL questions get the same admission
control, caching, and provenance as hand-written KGQL.

Deliberately not a model: translation must be deterministic (the
serving tier caches on the translated query) and auditable (the CLI and
HTTP responses echo the KGQL actually executed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import KGQLError
from repro.kgql.lexer import quote_label


@dataclass(frozen=True)
class NLTranslation:
    """One translated question: which template fired and the KGQL."""

    template: str
    kgql: str


def _clean(entity: str) -> str:
    """Normalize a captured entity slot: trim punctuation/articles."""
    entity = entity.strip().strip("?.!,;:").strip()
    entity = re.sub(r"^(?:the|a|an)\s+", "", entity, flags=re.IGNORECASE)
    if not entity:
        raise KGQLError("could not extract an entity from the question")
    return entity


def _side_effects(match: re.Match[str]) -> str:
    x = quote_label(_clean(match.group("x")))
    return (
        f'MATCH (x:{x})-[related*1..3]->(e) '
        f'WHERE e.category = "side_effects" RETURN x, e LIMIT 25'
    )


def _linking(match: re.Match[str]) -> str:
    x = quote_label(_clean(match.group("x")))
    y = quote_label(_clean(match.group("y")))
    return f"MATCH (x:{x})-[related*1..6]->(y:{y}) RETURN x, y LIMIT 25"


def _under(match: re.Match[str]) -> str:
    y = quote_label(_clean(match.group("y")))
    return f"MATCH (y:{y})-[parent_of*1..3]->(c) RETURN c LIMIT 50"


def _above(match: re.Match[str]) -> str:
    x = quote_label(_clean(match.group("x")))
    return f"MATCH (x:{x})-[child_of*1..5]->(p) RETURN p LIMIT 25"


def _about(match: re.Match[str]) -> str:
    x = quote_label(_clean(match.group("x")))
    return f"MATCH (x:{x}) RETURN x LIMIT 10"


#: Ordered (name, pattern, builder) templates; first match wins, so the
#: more specific shapes ("side effects of ...") precede the catch-all
#: "papers about ...".
TEMPLATES: tuple[tuple[str, re.Pattern[str], object], ...] = (
    (
        "side_effects_of",
        re.compile(
            r"^\s*(?:what\s+are\s+the\s+)?side[\s-]?effects\s+of\s+"
            r"(?P<x>.+?)\s*$",
            re.IGNORECASE,
        ),
        _side_effects,
    ),
    (
        "papers_linking",
        re.compile(
            r"^\s*(?:which\s+|what\s+)?papers?\s+link(?:s|ing)?\s+"
            r"(?P<x>.+?)\s+(?:and|to|with)\s+(?P<y>.+?)\s*$",
            re.IGNORECASE,
        ),
        _linking,
    ),
    (
        "what_is_under",
        re.compile(
            r"^\s*what\s+is\s+(?:under|below)\s+(?P<y>.+?)\s*$"
            r"|^\s*children\s+of\s+(?P<y2>.+?)\s*$",
            re.IGNORECASE,
        ),
        _under,
    ),
    (
        "what_is_above",
        re.compile(
            r"^\s*what\s+is\s+above\s+(?P<x>.+?)\s*$"
            r"|^\s*parents?\s+of\s+(?P<x2>.+?)\s*$",
            re.IGNORECASE,
        ),
        _above,
    ),
    (
        "papers_about",
        re.compile(
            r"^\s*(?:which\s+|what\s+)?papers?\s+(?:about|on|mention(?:s|ing)?)\s+"
            r"(?P<x>.+?)\s*$",
            re.IGNORECASE,
        ),
        _about,
    ),
)


class _AltMatch:
    """Present ``x``/``y`` uniformly when a template has alternative
    branches whose groups are suffixed (``y`` vs ``y2``)."""

    def __init__(self, match: re.Match[str]) -> None:
        self._match = match

    def group(self, name: str) -> str:
        groups = self._match.groupdict()
        value = groups.get(name)
        if value is None:
            value = groups.get(f"{name}2")
        if value is None:
            raise KGQLError(
                f"template matched without an entity for {name!r}")
        return value


def translate(question: str) -> NLTranslation:
    """Translate one NL question to KGQL, or raise :class:`KGQLError`.

    The error lists the supported shapes so the HTTP 400 payload tells
    the caller what the front end *can* answer.
    """
    for name, pattern, builder in TEMPLATES:
        match = pattern.match(question)
        if match:
            return NLTranslation(
                template=name, kgql=builder(_AltMatch(match)))
    shapes = ", ".join(name for name, _, _ in TEMPLATES)
    raise KGQLError(
        f"no NL template matches the question; supported shapes: {shapes}"
    )
