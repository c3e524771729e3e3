"""The aggregation pipeline engine.

A pipeline is a list of stage documents streamed over a collection:

* ``{"$match": <query>}`` — filter with the full query language; when it is
  the *first* stage the engine pushes it down onto the collection's indexes,
  which is exactly the optimization the paper highlights ("it was mindful to
  use the $match stage first to minimize the amount of data being passed
  through all the latter stages").
* ``{"$project": {field: 0|1 | expression}}`` — prune or compute fields.
  A plain inclusion/exclusion right after a pushed-down ``$match`` reads
  the collection's stored rows, so each matched document is copied once,
  already projected.
* ``{"$addFields": {field: expression}}`` — add computed fields.
* ``{"$function": {"name": ..., "args": [paths/exprs], "as": field}}`` —
  call a registered Python function per document (the paper's custom JS
  ranking functions).
* ``{"$sort": {field: 1|-1}}``, ``{"$skip": n}``, ``{"$limit": n}``,
  ``{"$count": name}``, ``{"$unwind": "$path"}``,
  ``{"$group": {"_id": expr, out: {"$sum"|"$avg"|"$min"|"$max"|"$push"|
  "$addToSet"|"$first"|"$last": expr}}}``.

Expressions support ``"$field"`` path references, literals, and operator
documents ``{"$add": [...]}, {"$multiply": [...]}, {"$concat": [...]},
{"$size": expr}, {"$toLower"/"$toUpper": expr}, {"$cond": [if, then, else]},
{"$literal": x}, {"$ifNull": [expr, fallback]}``.

Every run returns both the result documents and per-stage statistics
(documents in/out, wall time), which the E3 benchmark uses to show the
cost of mis-ordered stages.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.docstore.collection import Collection, apply_projection
from repro.docstore.documents import (
    ObjectId,
    deep_copy_document,
    deep_get,
    deep_set,
)
from repro.docstore.functions import FunctionRegistry, default_registry
from repro.docstore.matching import compile_filter
from repro.errors import AggregationError

_MISSING = object()

#: Every stage name the pipeline engine implements: the ten PAPER.md
#: §2 lists for the MongoDB substitution.
STAGE_NAMES = frozenset(
    {"$match", "$project", "$addFields", "$function", "$sort", "$skip",
     "$limit", "$count", "$unwind", "$group"}
)

#: Every accumulator ``$group`` outputs support.
ACCUMULATORS = frozenset(
    {"$sum", "$avg", "$min", "$max", "$push", "$addToSet", "$first",
     "$last", "$count"}
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


def evaluate_expression(expression: Any, document: dict[str, Any],
                        registry: FunctionRegistry) -> Any:
    """Evaluate an aggregation expression against one document."""
    if isinstance(expression, str) and expression.startswith("$"):
        return deep_get(document, expression[1:])
    if isinstance(expression, dict):
        if len(expression) == 1:
            op, operand = next(iter(expression.items()))
            if op.startswith("$"):
                return _evaluate_operator(op, operand, document, registry)
        return {
            key: evaluate_expression(value, document, registry)
            for key, value in expression.items()
        }
    if isinstance(expression, list):
        return [
            evaluate_expression(item, document, registry)
            for item in expression
        ]
    return expression


def _numbers(values: Iterable[Any]) -> list[float]:
    result = []
    for value in values:
        if value is None:
            value = 0
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise AggregationError(f"expected number, got {value!r}")
        result.append(value)
    return result


def _evaluate_operator(op: str, operand: Any, document: dict[str, Any],
                       registry: FunctionRegistry) -> Any:
    def ev(expr: Any) -> Any:
        return evaluate_expression(expr, document, registry)

    if op == "$literal":
        return operand
    if op == "$add":
        return sum(_numbers(ev(item) for item in operand))
    if op == "$subtract":
        left, right = (ev(item) for item in operand)
        return left - right
    if op == "$multiply":
        product = 1.0
        for number in _numbers(ev(item) for item in operand):
            product *= number
        return product
    if op == "$divide":
        left, right = _numbers(ev(item) for item in operand)
        if right == 0:
            raise AggregationError("$divide by zero")
        return left / right
    if op == "$concat":
        parts = [ev(item) for item in operand]
        if any(part is None for part in parts):
            return None
        return "".join(str(part) for part in parts)
    if op == "$size":
        value = ev(operand)
        if not isinstance(value, list):
            raise AggregationError("$size requires an array")
        return len(value)
    if op == "$toLower":
        value = ev(operand)
        return "" if value is None else str(value).lower()
    if op == "$toUpper":
        value = ev(operand)
        return "" if value is None else str(value).upper()
    if op == "$cond":
        if isinstance(operand, dict):
            branches = [operand["if"], operand["then"], operand["else"]]
        else:
            branches = operand
        condition, then_expr, else_expr = branches
        return ev(then_expr) if ev(condition) else ev(else_expr)
    if op == "$ifNull":
        value = ev(operand[0])
        return ev(operand[1]) if value is None else value
    if op == "$eq":
        left, right = (ev(item) for item in operand)
        return left == right
    if op == "$ne":
        left, right = (ev(item) for item in operand)
        return left != right
    if op == "$gt":
        left, right = (ev(item) for item in operand)
        return left is not None and right is not None and left > right
    if op == "$gte":
        left, right = (ev(item) for item in operand)
        return left is not None and right is not None and left >= right
    if op == "$lt":
        left, right = (ev(item) for item in operand)
        return left is not None and right is not None and left < right
    if op == "$lte":
        left, right = (ev(item) for item in operand)
        return left is not None and right is not None and left <= right
    if op == "$function":
        name = operand["name"]
        args = [ev(arg) for arg in operand.get("args", [])]
        return registry.get(name)(*args)
    raise AggregationError(f"unknown expression operator {op}")


class AggregationPipeline:
    """Compile-once, run-many pipeline over a collection or document list."""

    _STAGE_NAMES = STAGE_NAMES

    def __init__(self, stages: list[dict[str, Any]],
                 registry: FunctionRegistry | None = None) -> None:
        self.stages = stages
        self.registry = registry or default_registry
        for stage in stages:
            if len(stage) != 1:
                raise AggregationError(
                    f"each stage must have exactly one key: {stage!r}"
                )
            name = next(iter(stage))
            if name not in self._STAGE_NAMES:
                raise AggregationError(f"unknown stage {name!r}")

    # -- execution -----------------------------------------------------------

    def run(self, source: Collection | Iterable[dict[str, Any]]
            ) -> AggregationResult:
        """Execute the pipeline and collect per-stage statistics."""
        stats: list[StageStats] = []
        documents: list[dict[str, Any]]
        stages = self.stages

        if isinstance(source, Collection):
            # $match pushdown: a leading $match runs against the collection
            # (using its indexes) instead of a full materialized scan.
            if stages and "$match" in stages[0]:
                started = time.perf_counter()
                docs_in = len(source)
                query = stages[0]["$match"]
                if len(stages) > 1 and _is_plain_projection(
                        stages[1].get("$project")):
                    # apply_projection deep-copies everything it keeps,
                    # so the unprojected copy is never materialised: the
                    # stored rows go straight into the $project stage.
                    documents = list(source.scan(query))
                else:
                    documents = source.find(query).to_list()
                stats.append(StageStats(
                    "$match(indexed)", docs_in, len(documents),
                    time.perf_counter() - started,
                ))
                stages = stages[1:]
            else:
                documents = list(source.all_documents())
        else:
            documents = [deep_copy_document(doc) for doc in source]

        for stage in stages:
            name, spec = next(iter(stage.items()))
            started = time.perf_counter()
            docs_in = len(documents)
            documents = getattr(self, "_stage_" + name[1:])(documents, spec)
            stats.append(StageStats(
                name, docs_in, len(documents),
                time.perf_counter() - started,
            ))
        return AggregationResult(documents, stats)

    # -- stages ---------------------------------------------------------------

    def _stage_match(self, documents: list[dict[str, Any]],
                     spec: dict[str, Any]) -> list[dict[str, Any]]:
        predicate = compile_filter(spec)
        return [doc for doc in documents if predicate(doc)]

    def _stage_project(self, documents: list[dict[str, Any]],
                       spec: dict[str, Any]) -> list[dict[str, Any]]:
        if _is_plain_projection(spec):
            return [apply_projection(doc, spec) for doc in documents]
        results = []
        for document in documents:
            projected: dict[str, Any] = {}
            if spec.get("_id", 1) and "_id" in document:
                projected["_id"] = document["_id"]
            for path, expression in spec.items():
                if path == "_id":
                    continue
                if expression in (0, False):
                    continue
                if expression in (1, True):
                    value = deep_get(document, path, _MISSING)
                    if value is not _MISSING:
                        deep_set(projected, path, value)
                    continue
                deep_set(
                    projected, path,
                    evaluate_expression(expression, document, self.registry),
                )
            results.append(projected)
        return results

    def _stage_addFields(self, documents: list[dict[str, Any]],
                         spec: dict[str, Any]) -> list[dict[str, Any]]:
        for document in documents:
            for path, expression in spec.items():
                deep_set(
                    document, path,
                    evaluate_expression(expression, document, self.registry),
                )
        return documents

    def _stage_function(self, documents: list[dict[str, Any]],
                        spec: dict[str, Any]) -> list[dict[str, Any]]:
        name = spec.get("name")
        if not name:
            raise AggregationError("$function stage requires a 'name'")
        function = self.registry.get(name)
        output = spec.get("as", name)
        arg_exprs = spec.get("args", ["$$ROOT"])
        for document in documents:
            args = [
                document if expr == "$$ROOT"
                else evaluate_expression(expr, document, self.registry)
                for expr in arg_exprs
            ]
            deep_set(document, output, function(*args))
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

    def _stage_count(self, documents: list[dict[str, Any]],
                     spec: str) -> list[dict[str, Any]]:
        return [{str(spec): len(documents)}]

    def _stage_unwind(self, documents: list[dict[str, Any]],
                      spec: str | dict[str, Any]) -> list[dict[str, Any]]:
        if isinstance(spec, dict):
            path = spec["path"]
            keep_empty = spec.get("preserveNullAndEmptyArrays", False)
        else:
            path = spec
            keep_empty = False
        if not path.startswith("$"):
            raise AggregationError("$unwind path must start with '$'")
        path = path[1:]
        results = []
        for document in documents:
            value = deep_get(document, path, _MISSING)
            if value is _MISSING or value is None or value == []:
                if keep_empty:
                    results.append(document)
                continue
            if not isinstance(value, list):
                results.append(document)
                continue
            for item in value:
                clone = deep_copy_document(document)
                deep_set(clone, path, item)
                results.append(clone)
        return results

    _ACCUMULATORS = ACCUMULATORS

    def _stage_group(self, documents: list[dict[str, Any]],
                     spec: dict[str, Any]) -> list[dict[str, Any]]:
        if "_id" not in spec:
            raise AggregationError("$group requires an _id expression")
        id_expr = spec["_id"]
        groups: dict[Any, dict[str, Any]] = {}
        raw_keys: dict[Any, Any] = {}
        members: dict[Any, list[dict[str, Any]]] = {}
        for document in documents:
            key_value = (
                None if id_expr is None
                else evaluate_expression(id_expr, document, self.registry)
            )
            frozen = _freeze_key(key_value)
            if frozen not in groups:
                groups[frozen] = {"_id": key_value}
                raw_keys[frozen] = key_value
                members[frozen] = []
            members[frozen].append(document)
        for frozen, docs in members.items():
            out = groups[frozen]
            for out_field, acc_spec in spec.items():
                if out_field == "_id":
                    continue
                if not isinstance(acc_spec, dict) or len(acc_spec) != 1:
                    raise AggregationError(
                        f"accumulator for {out_field!r} must be a single-key "
                        "document"
                    )
                acc, expr = next(iter(acc_spec.items()))
                if acc not in self._ACCUMULATORS:
                    raise AggregationError(f"unknown accumulator {acc}")
                out[out_field] = self._accumulate(acc, expr, docs)
        return list(groups.values())

    def _accumulate(self, acc: str, expr: Any,
                    documents: list[dict[str, Any]]) -> Any:
        values = [
            evaluate_expression(expr, document, self.registry)
            for document in documents
        ]
        if acc == "$count":
            return len(documents)
        if acc == "$sum":
            return sum(_numbers(v for v in values if v is not None))
        if acc == "$avg":
            numbers = _numbers(v for v in values if v is not None)
            return sum(numbers) / len(numbers) if numbers else None
        if acc == "$min":
            present = [v for v in values if v is not None]
            return min(present) if present else None
        if acc == "$max":
            present = [v for v in values if v is not None]
            return max(present) if present else None
        if acc == "$push":
            return values
        if acc == "$addToSet":
            unique: list[Any] = []
            for value in values:
                if value not in unique:
                    unique.append(value)
            return unique
        if acc == "$first":
            return values[0] if values else None
        if acc == "$last":
            return values[-1] if values else None
        raise AggregationError(f"unknown accumulator {acc}")


def _is_plain_projection(spec: Any) -> bool:
    """True for an inclusion/exclusion ``$project`` (no expressions)."""
    return isinstance(spec, dict) and all(
        value in (0, 1, True, False) for value in spec.values()
    )


def _freeze_key(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_key(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze_key(item) for item in value)
    return value


def aggregate(source: Any, stages: list[dict[str, Any]],
              registry: FunctionRegistry | None = None) -> AggregationResult:
    """Run ``stages`` once over any source (a sharded one scatter-gathers)."""
    from repro.docstore.sharding import ShardedCollection  # imports us

    if isinstance(source, ShardedCollection):
        return source.aggregate(stages, registry)
    return AggregationPipeline(stages, registry).run(source)
