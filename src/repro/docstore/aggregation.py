"""The aggregation pipeline engine.

A pipeline is a list of stage documents streamed over a collection.  The
engine knows the six stages the system runs — the paper's search engines
are ``$match → $project → $function`` pipelines, ranked and paged by
``$sort`` / ``$skip`` / ``$limit`` (Section 2.1):

* ``{"$match": <query>}`` — filter with the full query language; when it is
  the *first* stage the engine pushes it down onto the collection's indexes,
  which is exactly the optimization the paper highlights ("it was mindful to
  use the $match stage first to minimize the amount of data being passed
  through all the latter stages").
* ``{"$project": {field: 1}}`` — an inclusion (``_id`` may be 0).  Right
  after a pushed-down ``$match`` it reads the collection's stored rows,
  so each matched document is copied once, already projected.
* ``{"$function": {"body": callable, "as": field}}`` — call ``body`` on
  each document and store its result under ``as`` (the paper's custom JS
  ranking functions; like MongoDB's ``$function``, the body is inline).
* ``{"$sort": {field: 1|-1}}``, ``{"$skip": n}``, ``{"$limit": n}``.

A malformed stage raises :class:`~repro.errors.AggregationError` when the
pipeline is built, before any document is read; each ``$match`` filter
is compiled there too, once (a malformed one raises
:class:`~repro.errors.QueryError`), and a sharded run hands the leading
one's predicate to every shard.

Every run returns both the result documents and per-stage statistics
(documents in/out, wall time), which the E3 benchmark uses to show the
cost of mis-ordered stages.  A pushed-down ``$match(indexed)`` counts in
the rows its scan examined, so an index that narrowed it shows.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.docstore.collection import (
    Collection,
    apply_projection,
    is_inclusion,
)
from repro.docstore.documents import (
    ObjectId,
    deep_copy_document,
    deep_get,
    deep_set,
)
from repro.docstore.matching import Predicate, compile_filter
from repro.errors import AggregationError

#: Every stage name the pipeline engine implements: the ones the search
#: engines and the paper benches run (DESIGN.md §2).
STAGE_NAMES = frozenset(
    {"$match", "$project", "$function", "$sort", "$skip", "$limit"}
)


def _sort_key(value: Any) -> tuple[int, Any]:
    """Total order across mixed types: None < numbers < strings < rest."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, ObjectId):
        return (3, value.value)
    return (4, str(value))


class _Descending:
    """Inverts comparisons so a descending field fits an ascending key."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and other.key == self.key


def sort_key_function(spec: dict[str, int]
                      ) -> Callable[[tuple[Any, dict[str, Any]]], tuple]:
    """A composite key over ``(tag, document)`` pairs matching ``$sort``.

    A stable multi-pass ``$sort`` (last field first) orders exactly like
    a single sort on the lexicographic composite key with the original
    position as the final tie-break — which is what this key encodes, so
    a bounded heap (``heapq.nsmallest``) reproduces the full sort's
    leading ``k`` documents byte-for-byte.  ``tag`` is any comparable
    position marker (an int, or ``(shard, offset)`` for merged partials).
    """
    fields = list(spec.items())

    def key(pair: tuple[Any, dict[str, Any]]) -> tuple:
        tag, document = pair
        parts: list[Any] = []
        for path, direction in fields:
            part = _sort_key(deep_get(document, path))
            parts.append(_Descending(part) if direction < 0 else part)
        parts.append(tag)
        return tuple(parts)

    return key


def top_k_tagged(tagged: Iterable[tuple[Any, dict[str, Any]]],
                 spec: dict[str, int],
                 k: int) -> list[tuple[Any, dict[str, Any]]]:
    """The leading ``k`` of a stable ``$sort`` over position-tagged docs.

    O(n log k) instead of the full sort's O(n log n); the sharded
    scatter-gather builds its ranked pages on it (per-shard bounded
    heaps, then one bounded merge).
    """
    if k <= 0:
        return []
    return heapq.nsmallest(k, tagged, key=sort_key_function(spec))


@dataclass
class StageStats:
    """Per-stage execution statistics."""

    stage: str
    docs_in: int = 0
    docs_out: int = 0
    seconds: float = 0.0


@dataclass
class AggregationResult:
    """Pipeline output plus the statistics of every stage."""

    documents: list[dict[str, Any]]
    stages: list[StageStats] = field(default_factory=list)

    def __iter__(self):
        return iter(self.documents)

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)


class AggregationPipeline:
    """Compile-once, run-many pipeline over a collection or document list."""

    def __init__(self, stages: list[dict[str, Any]]) -> None:
        self.stages = stages
        #: Stage position -> its ``$match`` filter, compiled.
        self._filters: dict[int, Predicate] = {}
        for position, stage in enumerate(stages):
            if len(stage) != 1:
                raise AggregationError(
                    f"each stage must have exactly one key: {stage!r}"
                )
            name, spec = next(iter(stage.items()))
            if name not in STAGE_NAMES:
                raise AggregationError(f"unknown stage {name!r}")
            if name == "$project" and not is_inclusion(spec):
                raise AggregationError(
                    "$project takes inclusions (_id may be 0), not "
                    f"expressions or exclusions: {spec!r}"
                )
            if name == "$function" and not (
                    isinstance(spec, dict) and callable(spec.get("body"))
                    and isinstance(spec.get("as"), str)):
                raise AggregationError(
                    "$function needs a callable 'body' and an 'as': "
                    f"{spec!r}"
                )
            if name == "$match":
                self._filters[position] = compile_filter(spec)

    # -- execution -----------------------------------------------------------

    def run(self, source: Collection | Iterable[dict[str, Any]],
            start: int = 0, stop: int | None = None) -> AggregationResult:
        """Execute ``stages[start:stop]`` and collect per-stage statistics."""
        stats: list[StageStats] = []
        documents: list[dict[str, Any]]
        positions = range(len(self.stages))[start:stop]

        if isinstance(source, Collection):
            # $match pushdown: a leading $match runs against the collection
            # (using its indexes) instead of a full materialized scan.
            if positions and positions[0] in self._filters:
                started = time.perf_counter()
                examined = source.scan_count
                rows = source.scan(self.stages[positions[0]]["$match"],
                                   self._filters[positions[0]])
                if len(positions) > 1 \
                        and "$project" in self.stages[positions[1]]:
                    # apply_projection deep-copies everything it keeps,
                    # so the unprojected copy is never materialised: the
                    # stored rows go straight into the $project stage.
                    documents = list(rows)
                else:
                    documents = [deep_copy_document(row) for row in rows]
                stats.append(StageStats(
                    "$match(indexed)", source.scan_count - examined,
                    len(documents), time.perf_counter() - started,
                ))
                positions = positions[1:]
            else:
                documents = list(source.all_documents())
        else:
            documents = [deep_copy_document(doc) for doc in source]

        for position in positions:
            name, spec = next(iter(self.stages[position].items()))
            started = time.perf_counter()
            docs_in = len(documents)
            documents = getattr(self, "_stage_" + name[1:])(
                documents, self._filters.get(position, spec))
            stats.append(StageStats(
                name, docs_in, len(documents),
                time.perf_counter() - started,
            ))
        return AggregationResult(documents, stats)

    # -- stages ---------------------------------------------------------------

    def _stage_match(self, documents: list[dict[str, Any]],
                     predicate: Predicate) -> list[dict[str, Any]]:
        return [doc for doc in documents if predicate(doc)]

    def _stage_project(self, documents: list[dict[str, Any]],
                       spec: dict[str, int]) -> list[dict[str, Any]]:
        return [apply_projection(doc, spec) for doc in documents]

    def _stage_function(self, documents: list[dict[str, Any]],
                        spec: dict[str, Any]) -> list[dict[str, Any]]:
        body, output = spec["body"], spec["as"]
        for document in documents:
            deep_set(document, output, body(document))
        return documents

    def _stage_sort(self, documents: list[dict[str, Any]],
                    spec: dict[str, Any]) -> list[dict[str, Any]]:
        for path, direction in reversed(list(spec.items())):
            documents = sorted(
                documents,
                key=lambda doc: _sort_key(deep_get(doc, path)),
                reverse=direction < 0,
            )
        return documents

    def _stage_skip(self, documents: list[dict[str, Any]],
                    spec: int) -> list[dict[str, Any]]:
        return documents[max(0, int(spec)):]

    def _stage_limit(self, documents: list[dict[str, Any]],
                     spec: int) -> list[dict[str, Any]]:
        return documents[: max(0, int(spec))]


def aggregate(source: Any,
              stages: list[dict[str, Any]]) -> AggregationResult:
    """Run ``stages`` once over any source (a sharded one scatter-gathers)."""
    from repro.docstore.sharding import ShardedCollection  # imports us

    if isinstance(source, ShardedCollection):
        return source.aggregate(stages)
    return AggregationPipeline(stages).run(source)
