"""Pre-flight aggregation-pipeline validation.

:func:`validate_pipeline` statically checks a pipeline *before* it is
scattered across shards: stage names, stage shapes, expression operator
documents, ``$function`` resolution against a :class:`FunctionRegistry`,
``$match`` query operators, plus performance *warnings* for the two
orderings the paper's E3 experiment measures (``$match`` not first — no
index pushdown — and ``$sort`` after ``$limit``).

The operator/stage vocabularies are imported from the evaluator modules
(:data:`repro.docstore.aggregation.STAGE_NAMES` etc.), so the validator
cannot drift from what the engine actually implements.

A malformed pipeline otherwise fails part-way through the first shard's
scan, as an evaluator error rather than a structured report of every
problem at once.  Validation is O(pipeline size), independent of data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.docstore.aggregation import (
    ACCUMULATORS,
    EXPRESSION_OPERATORS,
    STAGE_NAMES,
)
from repro.docstore.functions import FunctionRegistry
from repro.docstore.matching import LOGICAL_OPERATORS, QUERY_OPERATORS
from repro.errors import AggregationError


@dataclass(frozen=True)
class PipelineIssue:
    """One problem found in a pipeline document."""

    severity: str  # "error" | "warning"
    stage_index: int  # -1 for pipeline-level issues
    stage: str  # "$sort", ... or "" for pipeline-level issues
    message: str

    def __str__(self) -> str:
        where = f"stage {self.stage_index} ({self.stage})" \
            if self.stage_index >= 0 else "pipeline"
        return f"[{self.severity}] {where}: {self.message}"


class PipelineValidationError(AggregationError):
    """A pipeline failed pre-flight validation (before any fan-out)."""

    def __init__(self, issues: list[PipelineIssue]) -> None:
        self.issues = issues
        details = "; ".join(str(issue) for issue in issues)
        super().__init__(f"invalid pipeline: {details}")


def ensure_valid_pipeline(stages: Any,
                          registry: FunctionRegistry | None = None
                          ) -> list[PipelineIssue]:
    """Raise :class:`PipelineValidationError` on errors; return warnings."""
    issues = validate_pipeline(stages, registry)
    errors = [issue for issue in issues if issue.severity == "error"]
    if errors:
        raise PipelineValidationError(errors)
    return issues


def validate_pipeline(stages: Any,
                      registry: FunctionRegistry | None = None
                      ) -> list[PipelineIssue]:
    """Every error and warning in ``stages``, without executing anything.

    ``registry`` enables ``$function`` name resolution; pass ``None`` to
    skip that check (e.g. when per-query functions are registered later).
    """
    issues: list[PipelineIssue] = []

    def problem(severity: str, index: int, stage: str, message: str) -> None:
        issues.append(PipelineIssue(severity, index, stage, message))

    if not isinstance(stages, (list, tuple)):
        problem("error", -1, "",
                f"pipeline must be a list of stages, got "
                f"{type(stages).__name__}")
        return issues

    for index, stage in enumerate(stages):
        if not isinstance(stage, dict) or len(stage) != 1:
            problem("error", index, "",
                    f"each stage must be a single-key document, got "
                    f"{stage!r}")
            continue
        name, spec = next(iter(stage.items()))
        if name not in STAGE_NAMES:
            hint = _closest(name, STAGE_NAMES)
            problem("error", index, name,
                    f"unknown stage {name!r}"
                    + (f" (did you mean {hint!r}?)" if hint else ""))
            continue
        checker = _STAGE_CHECKERS.get(name)
        if checker is not None:
            checker(spec, index, registry, problem)

    _check_ordering(stages, problem)
    return issues


# -- per-stage shape checks ------------------------------------------------

def _check_match(spec: Any, index: int, registry: Any, problem) -> None:
    if not isinstance(spec, dict):
        problem("error", index, "$match", "spec must be a query document")
        return
    _check_query(spec, index, problem)


def _check_query(query: dict[str, Any], index: int, problem) -> None:
    for key, value in query.items():
        if key.startswith("$"):
            if key not in LOGICAL_OPERATORS:
                problem("error", index, "$match",
                        f"unknown top-level operator {key!r}; logical "
                        f"operators are {sorted(LOGICAL_OPERATORS)}")
            elif not isinstance(value, (list, tuple)) or not value:
                problem("error", index, "$match",
                        f"{key} requires a non-empty list of sub-queries")
            else:
                for sub in value:
                    if isinstance(sub, dict):
                        _check_query(sub, index, problem)
                    else:
                        problem("error", index, "$match",
                                f"{key} sub-query must be a document, "
                                f"got {sub!r}")
        elif _is_operator_doc(value):
            for op, operand in value.items():
                if op not in QUERY_OPERATORS:
                    hint = _closest(op, QUERY_OPERATORS)
                    problem("error", index, "$match",
                            f"unknown query operator {op!r} on field "
                            f"{key!r}"
                            + (f" (did you mean {hint!r}?)" if hint else ""))
                elif op in ("$in", "$nin", "$all") and \
                        not isinstance(operand, (list, tuple)):
                    problem("error", index, "$match",
                            f"{op} on field {key!r} requires an array")
                elif op == "$elemMatch" and isinstance(operand, dict):
                    _check_query(operand, index, problem)


def _is_operator_doc(value: Any) -> bool:
    return (isinstance(value, dict) and bool(value)
            and all(key.startswith("$") for key in value))


def _check_project(spec: Any, index: int, registry: Any, problem,
                   stage: str = "$project") -> None:
    if not isinstance(spec, dict) or not spec:
        problem("error", index, stage, "spec must be a non-empty document")
        return
    for path, expression in spec.items():
        if expression in (0, 1, True, False) and stage == "$project":
            continue
        _check_expression(expression, index, stage, registry, problem)


def _check_add_fields(spec: Any, index: int, registry: Any, problem) -> None:
    _check_project(spec, index, registry, problem, stage="$addFields")


def _check_function(spec: Any, index: int, registry: Any, problem) -> None:
    if not isinstance(spec, dict):
        problem("error", index, "$function", "spec must be a document")
        return
    name = spec.get("name")
    if not name or not isinstance(name, str):
        problem("error", index, "$function",
                "requires a non-empty string 'name'")
    elif registry is not None and name not in registry:
        problem("error", index, "$function",
                f"{name!r} is not registered; registered functions: "
                f"{registry.names()}")
    args = spec.get("args")
    if args is not None and not isinstance(args, (list, tuple)):
        problem("error", index, "$function", "'args' must be a list")
    elif args:
        for arg in args:
            if arg == "$$ROOT":
                continue
            _check_expression(arg, index, "$function", registry, problem)


def _check_sort(spec: Any, index: int, registry: Any, problem) -> None:
    if not isinstance(spec, dict) or not spec:
        problem("error", index, "$sort",
                "spec must be a non-empty {field: 1|-1} document")
        return
    for path, direction in spec.items():
        if direction not in (1, -1):
            problem("error", index, "$sort",
                    f"direction for {path!r} must be 1 or -1, got "
                    f"{direction!r}")


def _check_nonnegative_int(stage: str):
    def check(spec: Any, index: int, registry: Any, problem) -> None:
        if isinstance(spec, bool) or not isinstance(spec, int) or spec < 0:
            problem("error", index, stage,
                    f"spec must be a non-negative integer, got {spec!r}")
    return check


def _check_count(spec: Any, index: int, registry: Any, problem) -> None:
    if not isinstance(spec, str) or not spec:
        problem("error", index, "$count",
                f"spec must be a non-empty output field name, got {spec!r}")


def _check_unwind(spec: Any, index: int, registry: Any, problem) -> None:
    path = spec.get("path") if isinstance(spec, dict) else spec
    if not isinstance(path, str) or not path.startswith("$"):
        problem("error", index, "$unwind",
                f"path must be a string starting with '$', got {path!r}")


def _check_group(spec: Any, index: int, registry: Any, problem) -> None:
    if not isinstance(spec, dict):
        problem("error", index, "$group", "spec must be a document")
        return
    if "_id" not in spec:
        problem("error", index, "$group", "requires an _id expression")
    for out_field, acc_spec in spec.items():
        if out_field == "_id":
            if spec["_id"] is not None:
                _check_expression(spec["_id"], index, "$group", registry,
                                  problem)
            continue
        if not isinstance(acc_spec, dict) or len(acc_spec) != 1:
            problem("error", index, "$group",
                    f"accumulator for {out_field!r} must be a single-key "
                    f"document, got {acc_spec!r}")
            continue
        acc, expr = next(iter(acc_spec.items()))
        if acc not in ACCUMULATORS:
            hint = _closest(acc, ACCUMULATORS)
            problem("error", index, "$group",
                    f"unknown accumulator {acc!r} for {out_field!r}"
                    + (f" (did you mean {hint!r}?)" if hint else ""))
        elif acc != "$count":
            _check_expression(expr, index, "$group", registry, problem)


def _check_lookup(spec: Any, index: int, registry: Any, problem) -> None:
    if not isinstance(spec, dict):
        problem("error", index, "$lookup", "spec must be a document")
        return
    if spec.get("from") is None:
        problem("error", index, "$lookup", "missing required field 'from'")
    for required in ("localField", "foreignField", "as"):
        if not spec.get(required):
            problem("error", index, "$lookup",
                    f"missing required field {required!r}")


def _check_facet(spec: Any, index: int, registry: Any, problem) -> None:
    if not isinstance(spec, dict) or not spec:
        problem("error", index, "$facet",
                "spec must be a non-empty {name: sub-pipeline} document")
        return
    for facet_name, sub_stages in spec.items():
        for issue in validate_pipeline(sub_stages, registry):
            problem(issue.severity, index, "$facet",
                    f"facet {facet_name!r}: {issue.message}")


def _check_sample(spec: Any, index: int, registry: Any, problem) -> None:
    size = spec.get("size") if isinstance(spec, dict) else None
    if isinstance(size, bool) or not isinstance(size, int) or size <= 0:
        problem("error", index, "$sample",
                f"requires a positive integer 'size', got {size!r}")


def _check_bucket(spec: Any, index: int, registry: Any, problem) -> None:
    if not isinstance(spec, dict):
        problem("error", index, "$bucket", "spec must be a document")
        return
    boundaries = spec.get("boundaries")
    if not isinstance(boundaries, (list, tuple)) or len(boundaries) < 2:
        problem("error", index, "$bucket",
                "requires at least two sorted boundaries")
    else:
        try:
            if sorted(boundaries) != list(boundaries):
                problem("error", index, "$bucket",
                        "boundaries must be sorted ascending")
        except TypeError:
            problem("error", index, "$bucket",
                    "boundaries must be mutually comparable")
    if "groupBy" not in spec:
        problem("error", index, "$bucket", "requires a groupBy expression")
    else:
        _check_expression(spec["groupBy"], index, "$bucket", registry,
                          problem)


def _check_replace_root(spec: Any, index: int, registry: Any,
                        problem) -> None:
    if not isinstance(spec, dict) or "newRoot" not in spec:
        problem("error", index, "$replaceRoot", "requires newRoot")
        return
    _check_expression(spec["newRoot"], index, "$replaceRoot", registry,
                      problem)


def _check_sort_by_count(spec: Any, index: int, registry: Any,
                         problem) -> None:
    _check_expression(spec, index, "$sortByCount", registry, problem)


_STAGE_CHECKERS = {
    "$match": _check_match,
    "$project": _check_project,
    "$addFields": _check_add_fields,
    "$function": _check_function,
    "$sort": _check_sort,
    "$skip": _check_nonnegative_int("$skip"),
    "$limit": _check_nonnegative_int("$limit"),
    "$count": _check_count,
    "$unwind": _check_unwind,
    "$group": _check_group,
    "$lookup": _check_lookup,
    "$facet": _check_facet,
    "$sample": _check_sample,
    "$bucket": _check_bucket,
    "$replaceRoot": _check_replace_root,
    "$sortByCount": _check_sort_by_count,
}


# -- expressions -----------------------------------------------------------

#: Operators with a fixed operand count (list form).
_ARITY = {
    "$subtract": 2, "$divide": 2, "$ifNull": 2, "$eq": 2, "$ne": 2,
    "$gt": 2, "$gte": 2, "$lt": 2, "$lte": 2, "$in": 2,
    "$arrayElemAt": 2,
}


def _check_expression(expression: Any, index: int, stage: str,
                      registry: Any, problem) -> None:
    """Recursively validate one aggregation expression."""
    if isinstance(expression, str):
        return  # "$path", "$$variable", or a literal string
    if isinstance(expression, (list, tuple)):
        for item in expression:
            _check_expression(item, index, stage, registry, problem)
        return
    if not isinstance(expression, dict):
        return  # scalar literal
    if len(expression) == 1:
        op, operand = next(iter(expression.items()))
        if op.startswith("$"):
            if op not in EXPRESSION_OPERATORS:
                hint = _closest(op, EXPRESSION_OPERATORS)
                problem("error", index, stage,
                        f"unknown expression operator {op!r}"
                        + (f" (did you mean {hint!r}?)" if hint else ""))
                return
            arity = _ARITY.get(op)
            if arity is not None and isinstance(operand, (list, tuple)) \
                    and len(operand) != arity:
                problem("error", index, stage,
                        f"{op} takes exactly {arity} operands, got "
                        f"{len(operand)}")
            if op == "$cond":
                _check_cond(operand, index, stage, problem)
            if op == "$function":
                if not isinstance(operand, dict) or "name" not in operand:
                    problem("error", index, stage,
                            "$function expression requires a 'name'")
                elif registry is not None and \
                        operand["name"] not in registry:
                    problem("error", index, stage,
                            f"$function {operand['name']!r} is not "
                            f"registered")
            if op in ("$filter", "$map"):
                required = "cond" if op == "$filter" else "in"
                if not isinstance(operand, dict) or \
                        "input" not in operand or required not in operand:
                    problem("error", index, stage,
                            f"{op} requires 'input' and {required!r}")
                    return
            if isinstance(operand, (list, tuple, dict)) \
                    and op != "$literal":
                _check_expression(operand, index, stage, registry, problem)
            return
    for value in expression.values():
        _check_expression(value, index, stage, registry, problem)


def _check_cond(operand: Any, index: int, stage: str, problem) -> None:
    if isinstance(operand, dict):
        missing = {"if", "then", "else"} - set(operand)
        if missing:
            problem("error", index, stage,
                    f"$cond document form missing {sorted(missing)}")
    elif not isinstance(operand, (list, tuple)) or len(operand) != 3:
        problem("error", index, stage,
                "$cond takes [if, then, else] or a document with those "
                "keys")


# -- cost estimation -------------------------------------------------------

#: Cost multiplier for evaluating a registered ``$function`` per document
#: (ranking functions tokenize/score full text — far heavier than a
#: field comparison).
FUNCTION_COST_FACTOR = 4.0

#: Cost multiplier for a ``$function`` stage the engine can execute on
#: the columnar numpy kernels (:mod:`repro.search.columnar`): no
#: per-document Python, so it prices like a cheap linear stage.
KERNEL_FUNCTION_COST_FACTOR = 1.0

#: Worst-case fan-out assumed for ``$unwind`` when the array length is
#: unknowable statically.
UNWIND_FANOUT = 4.0

#: Per-document multiplier for ``$lookup`` (hash-join build + probe).
LOOKUP_COST_FACTOR = 2.0


@dataclass(frozen=True)
class StageCost:
    """Worst-case price of one stage: documents in/out and work units."""

    stage: str
    documents_in: float
    documents_out: float
    cost: float


@dataclass(frozen=True)
class PipelineCostEstimate:
    """Worst-case document flow and total work units for a pipeline.

    One *work unit* is "touch one document once with a cheap
    operation"; heavier stages scale it (``$function`` by
    :data:`FUNCTION_COST_FACTOR`, sorts by ``log2`` of what they keep).
    The estimate is an upper bound: filters are assumed to pass every
    document, so admission control can price a request before running
    it without ever under-charging.
    """

    stages: tuple[StageCost, ...]
    total_cost: float
    documents_in: float
    documents_out: float


def estimate_pipeline_cost(pipeline: Any,
                           shard_document_counts: Any,
                           function_cost_factor: float = FUNCTION_COST_FACTOR
                           ) -> PipelineCostEstimate:
    """Price ``pipeline`` against per-shard document counts, worst case.

    ``shard_document_counts`` is a sequence of per-shard sizes (one int
    per shard; a bare int is treated as a single shard).  Each shard
    runs the per-document prefix independently, so stage costs are the
    sum over shards of that shard's worst-case flow — which for the
    linear stages equals pricing the union, and for sorts is *cheaper*
    than one global sort, matching the scatter-gather execution model.

    ``function_cost_factor`` prices ``$function`` stages; callers that
    know the query runs on the columnar kernels pass
    :data:`KERNEL_FUNCTION_COST_FACTOR` instead of the scalar default.

    Unknown or malformed stages are priced conservatively (cost = docs
    in, docs out = docs in); shape errors are
    :func:`validate_pipeline`'s job, not the estimator's.
    """
    if isinstance(shard_document_counts, (int, float)):
        shard_document_counts = [shard_document_counts]
    docs = float(sum(max(0, int(count)) for count in shard_document_counts))
    documents_in = docs
    stage_costs: list[StageCost] = []
    total = 0.0
    stages = list(pipeline) if isinstance(pipeline, (list, tuple)) else []
    index = 0
    while index < len(stages):
        stage = stages[index]
        if not isinstance(stage, dict) or len(stage) != 1:
            index += 1
            continue
        name, spec = next(iter(stage.items()))
        if name == "$sort":
            # A $sort feeding $skip/$limit is executed as a bounded
            # top-k merge (PR 2); price n*log2(k), not n*log2(n).
            keep = _trailing_page_size(stages, index)
            if keep is not None:
                cost = docs * _log2(min(docs, keep))
                docs_out = min(docs, keep)
                # Fold the $skip/$limit stages into this one's price;
                # they are free once the heap has truncated the flow.
                while index + 1 < len(stages) and \
                        _single_key(stages[index + 1]) in ("$skip", "$limit"):
                    index += 1
                    docs_out = _apply_skip_limit(stages[index], docs_out)
                name = "$sort(top-k)"
            else:
                cost = docs * _log2(docs)
                docs_out = docs
        elif name == "$function":
            cost = docs * function_cost_factor
            docs_out = docs
        elif name in ("$skip", "$limit"):
            cost = docs
            docs_out = _apply_skip_limit(stage, docs)
        elif name == "$count":
            cost = docs
            docs_out = 1.0 if docs else 0.0
        elif name == "$sample":
            size = spec.get("size") if isinstance(spec, dict) else None
            cost = docs
            docs_out = min(docs, float(size)) \
                if isinstance(size, (int, float)) and size > 0 else docs
        elif name == "$unwind":
            cost = docs * UNWIND_FANOUT
            docs_out = docs * UNWIND_FANOUT
        elif name == "$group" or name == "$sortByCount" or name == "$bucket":
            # Worst case: every document forms its own group.
            cost = docs
            docs_out = docs
        elif name == "$lookup":
            cost = docs * LOOKUP_COST_FACTOR
            docs_out = docs
        elif name == "$facet":
            # Every facet replays the full input through its own
            # sub-pipeline; the stage itself emits one document.
            cost = docs
            if isinstance(spec, dict):
                for sub_stages in spec.values():
                    sub = estimate_pipeline_cost(
                        sub_stages, [docs],
                        function_cost_factor=function_cost_factor,
                    )
                    cost += sub.total_cost
            docs_out = 1.0 if docs else 0.0
        else:
            # $match/$project/$addFields/$replaceRoot and anything new:
            # one cheap touch per document, worst case passes them all.
            cost = docs
            docs_out = docs
        stage_costs.append(StageCost(name, docs, docs_out, cost))
        total += cost
        docs = docs_out
        index += 1
    return PipelineCostEstimate(tuple(stage_costs), total, documents_in, docs)


def _single_key(stage: Any) -> str | None:
    if isinstance(stage, dict) and len(stage) == 1:
        return next(iter(stage))
    return None


def _trailing_page_size(stages: list, sort_index: int) -> float | None:
    """``skip + limit`` when the $sort feeds only $skip/$limit stages."""
    skip = 0.0
    limit: float | None = None
    for stage in stages[sort_index + 1:]:
        name = _single_key(stage)
        if name == "$skip":
            spec = stage["$skip"]
            if isinstance(spec, int) and not isinstance(spec, bool):
                skip += max(0, spec)
        elif name == "$limit":
            spec = stage["$limit"]
            if isinstance(spec, int) and not isinstance(spec, bool):
                limit = max(0, spec)
            break
        else:
            break
    if limit is None:
        return None
    return skip + limit


def _apply_skip_limit(stage: dict, docs: float) -> float:
    name, spec = next(iter(stage.items()))
    if isinstance(spec, bool) or not isinstance(spec, int) or spec < 0:
        return docs
    if name == "$skip":
        return max(0.0, docs - spec)
    return min(docs, float(spec))


def _log2(value: float) -> float:
    from math import log2

    return log2(max(2.0, value))


# -- pipeline-level ordering (performance) ---------------------------------

def _check_ordering(stages: list, problem) -> None:
    """The E3 orderings: $match first (pushdown), $sort before $limit."""
    names = [
        next(iter(stage)) for stage in stages
        if isinstance(stage, dict) and len(stage) == 1
    ]
    if "$match" in names and names[0] != "$match":
        first_match = names.index("$match")
        # A $match after $group/$unwind/$function may depend on computed
        # fields; only flag matches that merely trail other filters.
        if not any(name in ("$group", "$unwind", "$function", "$addFields",
                            "$project", "$facet", "$bucket", "$lookup",
                            "$replaceRoot", "$sortByCount")
                   for name in names[:first_match]):
            problem("warning", first_match, "$match",
                    "$match is not the first stage; moving it first "
                    "enables index pushdown and shrinks every later stage")
    for position, name in enumerate(names):
        if name == "$sort" and "$limit" in names[:position]:
            problem("warning", position, "$sort",
                    "$sort after $limit sorts an already-truncated "
                    "result; sort first (enables bounded top-k merge)")
            break


# -- misc ------------------------------------------------------------------

def _closest(candidate: str, vocabulary: frozenset[str]) -> str | None:
    """The closest known name, for did-you-mean hints (small edit bias)."""
    from difflib import get_close_matches

    matches = get_close_matches(candidate, vocabulary, n=1, cutoff=0.6)
    return matches[0] if matches else None
