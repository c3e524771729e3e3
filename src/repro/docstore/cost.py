"""Worst-case pricing of an aggregation pipeline, for admission control.

:func:`estimate_pipeline_cost` walks a pipeline document the way
:func:`repro.docstore.aggregation.aggregate` would execute it and
returns the documents each stage can see and the work units it can
spend, assuming every filter passes everything.  The serving tier
(``ServeConfig.max_request_cost``) rejects a request whose estimate
exceeds its budget before the request is queued; KGQL plans are priced
into the same :class:`PipelineCostEstimate` shape
(:func:`repro.kgql.plan.estimate_kgql_cost`).  Pricing is O(pipeline
size), independent of data, and imports nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
    in, docs out = docs in); the engine raises
    :class:`~repro.errors.AggregationError` on them when they run.
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
        name = next(iter(stage))
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
        elif name == "$unwind":
            cost = docs * UNWIND_FANOUT
            docs_out = docs * UNWIND_FANOUT
        else:
            # $match/$project/$addFields/$group and anything new: one
            # cheap touch per document, worst case passes them all (or
            # puts each in its own group).
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

