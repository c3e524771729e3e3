"""The KGQL executor: logical plans evaluated over a ``KnowledgeGraph``.

Semantics (pinned by the differential tests against brute-force
enumeration in ``tests/test_kgql_executor.py``):

* a **match** is an assignment of every pattern variable (named and
  planner-generated anonymous) to a node satisfying all labels, edges,
  and WHERE predicates;
* an edge ``(a)-[t*lo..hi]->(b)`` matches when a *walk* of length
  ``lo <= h <= hi`` over ``t``-edges leads from ``a``'s node to
  ``b``'s node (walks may revisit nodes: ``related*2`` reaches the
  start again via any neighbour);
* the **result set** is the distinct bindings of the *named* variables
  (anonymous patterns are existential), ordered by the numeric node
  ids of the named variables in first-appearance order — fully
  deterministic, so identical queries are byte-identical across runs
  and cache layers;
* ``LIMIT`` truncates after ordering; ``total_matches`` reports the
  pre-limit count;
* every returned variable carries **provenance**: the supporting paper
  ids (:meth:`KnowledgeGraph.papers_for`) and the rendered root path
  with the node highlighted, exactly like KG keyword search hits.

Comparison semantics are total and deterministic: mismatched operand
types (``depth > "x"``) compare unequal (``=`` false, ``!=`` true,
ordering false) rather than raising mid-scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import KGQLError
from repro.kg.graph import KnowledgeGraph
from repro.kg.node import normalize_label, stem_terms
from repro.kg.search import render_path
from repro.kgql.ast import (
    BoolOp,
    Comparison,
    Expr,
    FieldRef,
    Literal,
    NotExpr,
    Query,
)
from repro.kgql.nl import translate
from repro.kgql.parser import parse
from repro.kgql.plan import (
    ExpandStage,
    FilterStage,
    ProjectStage,
    ScanStage,
    plan_query,
)

#: Ceiling on intermediate bindings, so one traversal cannot grow
#: without bound.  Deterministic for a given graph snapshot, so the
#: serving tier may negative-cache it.
MAX_BINDINGS = 100_000


def _numeric_id(node_id: str) -> tuple[int, str]:
    """Sort key: creation order for ``n<k>`` ids, lexicographic tail."""
    if node_id.startswith("n") and node_id[1:].isdigit():
        return (int(node_id[1:]), "")
    return (1 << 60, node_id)


@dataclass
class KGQLRow:
    """One result row: a node payload per returned variable, plus the
    row's linking provenance."""

    bindings: dict[str, dict[str, Any]]
    #: Papers supporting *every* returned node when several variables
    #: are returned (the "papers linking X and Y" set); a single
    #: variable's own provenance otherwise.
    papers: list[str]

    def to_json(self) -> dict[str, Any]:
        return {"bindings": self.bindings, "papers": self.papers}


@dataclass
class KGQLResult:
    """A full query answer with provenance-bearing rows."""

    query: str
    columns: list[str]
    rows: list[KGQLRow]
    #: Distinct matches before LIMIT.
    total_matches: int
    seconds: float

    def to_json(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "columns": self.columns,
            "total_matches": self.total_matches,
            "seconds": self.seconds,
            "rows": [row.to_json() for row in self.rows],
        }


class KGQLEngine:
    """Parse/plan/execute KGQL against one :class:`KnowledgeGraph`."""

    def __init__(self, graph: KnowledgeGraph,
                 max_bindings: int = MAX_BINDINGS) -> None:
        self.graph = graph
        self.max_bindings = max_bindings

    # -- public API -------------------------------------------------------

    def query(self, text: str, nl: bool = False) -> KGQLResult:
        """Execute KGQL source (or, with ``nl=True``, a natural-language
        question routed through the template front end)."""
        kgql = translate(text).kgql if nl else text
        return self.execute(parse(kgql), source=kgql)

    def explain(self, text: str, nl: bool = False) -> dict[str, Any]:
        """The logical plan, without executing."""
        kgql = translate(text).kgql if nl else text
        return {"query": kgql, "plan": plan_query(parse(kgql)).explain()}

    def execute(self, query: Query,
                source: str | None = None) -> KGQLResult:
        started = time.monotonic()
        plan = plan_query(query)
        bindings: list[dict[str, str]] = [{}]
        result_rows: list[KGQLRow] = []
        total = 0
        for stage in plan.stages:
            if isinstance(stage, ScanStage):
                bindings = self._scan(stage, bindings)
            elif isinstance(stage, ExpandStage):
                bindings = self._expand(stage, bindings)
            elif isinstance(stage, FilterStage):
                predicate = self._compile(stage.expr)
                bindings = [b for b in bindings if predicate(b)]
            else:
                result_rows, total = self._project(stage, bindings)
            if len(bindings) > self.max_bindings:
                raise KGQLError(
                    f"query exceeded {self.max_bindings} intermediate "
                    f"bindings; add labels, predicates, or tighter "
                    f"hop bounds"
                )
        return KGQLResult(
            query=source if source is not None else query.render(),
            columns=list(plan.stages[-1].returns),
            rows=result_rows,
            total_matches=total,
            seconds=time.monotonic() - started,
        )

    # -- stages -----------------------------------------------------------

    def _candidates(self, label: str | None) -> list[str]:
        if label is not None:
            nodes = self.graph.find_by_label(label)
        else:
            nodes = list(self.graph.walk())
        return sorted((node.node_id for node in nodes),
                      key=_numeric_id)

    def _scan(self, stage: ScanStage,
              bindings: list[dict[str, str]]) -> list[dict[str, str]]:
        if bindings and stage.var in bindings[0]:
            # The variable is already bound (a later chain revisits
            # it): the scan degenerates to a label constraint.
            if stage.label is None:
                return bindings
            wanted = normalize_label(stage.label)
            return [
                b for b in bindings
                if self.graph.node(b[stage.var]).normalized == wanted
            ]
        candidates = self._candidates(stage.label)
        return [
            {**binding, stage.var: node_id}
            for binding in bindings
            for node_id in candidates
        ]

    def _neighbors(self, node_id: str, etype: str) -> list[str]:
        node = self.graph.node(node_id)
        if etype == "child_of":
            return [node.parent_id] if node.parent_id is not None else []
        if etype == "parent_of":
            return list(node.children)
        reached = list(node.children)
        if node.parent_id is not None:
            reached.append(node.parent_id)
        return reached

    def _walk_reach(self, start: str, etype: str, min_hops: int,
                    max_hops: int) -> set[str]:
        """Nodes reachable by a walk of ``min_hops..max_hops`` edges."""
        reached: set[str] = {start} if min_hops == 0 else set()
        frontier = {start}
        for hop in range(1, max_hops + 1):
            frontier = {
                neighbor
                for node_id in frontier
                for neighbor in self._neighbors(node_id, etype)
            }
            if not frontier:
                break
            if hop >= min_hops:
                reached |= frontier
        return reached

    def _expand(self, stage: ExpandStage,
                bindings: list[dict[str, str]]) -> list[dict[str, str]]:
        wanted = None if stage.dst_label is None \
            else normalize_label(stage.dst_label)
        out: list[dict[str, str]] = []
        reach_cache: dict[str, set[str]] = {}
        for binding in bindings:
            src = binding[stage.src]
            reached = reach_cache.get(src)
            if reached is None:
                reached = self._walk_reach(
                    src, stage.etype, stage.min_hops, stage.max_hops)
                reach_cache[src] = reached
            if stage.dst in binding:
                dst = binding[stage.dst]
                if dst in reached and (
                        wanted is None or
                        self.graph.node(dst).normalized == wanted):
                    out.append(binding)
                continue
            for dst in sorted(reached, key=_numeric_id):
                if wanted is not None and \
                        self.graph.node(dst).normalized != wanted:
                    continue
                out.append({**binding, stage.dst: dst})
        return out

    # -- predicates -------------------------------------------------------

    def _field_value(self, node_id: str, field: str) -> Any:
        node = self.graph.node(node_id)
        if field == "id":
            return node.node_id
        if field == "label":
            return node.label
        if field == "category":
            return node.category if node.category is not None else ""
        if field == "depth":
            return self.graph.depth_map()[node_id]
        # papers: the size of the node's provenance closure.
        return len(self.graph.papers_for(node_id))

    def _compile(self, expr: Expr) -> Callable[[dict[str, str]], bool]:
        if isinstance(expr, BoolOp):
            compiled = [self._compile(operand)
                        for operand in expr.operands]
            if expr.op == "AND":
                return lambda b: all(check(b) for check in compiled)
            return lambda b: any(check(b) for check in compiled)
        if isinstance(expr, NotExpr):
            inner = self._compile(expr.operand)
            return lambda b: not inner(b)
        return self._compile_comparison(expr)

    def _compile_comparison(self, expr: Comparison
                            ) -> Callable[[dict[str, str]], bool]:
        def resolve(operand: Any, binding: dict[str, str]) -> Any:
            if isinstance(operand, Literal):
                return operand.value
            assert isinstance(operand, FieldRef)
            return self._field_value(binding[operand.var], operand.field)

        op = expr.op

        def check(binding: dict[str, str]) -> bool:
            lhs = resolve(expr.lhs, binding)
            rhs = resolve(expr.rhs, binding)
            if op == "CONTAINS":
                # Stemmed term containment, matching keyword search:
                # "Side-effects" CONTAINS "effect" holds.
                return stem_terms(str(rhs)) <= stem_terms(str(lhs))
            numeric = (int, float)
            compatible = (
                type(lhs) is type(rhs) or
                (isinstance(lhs, numeric) and isinstance(rhs, numeric))
            )
            if op == "=":
                return compatible and lhs == rhs
            if op == "!=":
                return not compatible or lhs != rhs
            if not compatible:
                return False
            if op == "<":
                return lhs < rhs
            if op == "<=":
                return lhs <= rhs
            if op == ">":
                return lhs > rhs
            return lhs >= rhs

        return check

    # -- projection -------------------------------------------------------

    def node_payload(self, node_id: str) -> dict[str, Any]:
        """The provenance-bearing payload for one bound node."""
        node = self.graph.node(node_id)
        path = self.graph.path_to(node_id)
        return {
            "id": node.node_id,
            "label": node.label,
            "category": node.category,
            "depth": len(path) - 1,
            "path": [item.label for item in path],
            "rendered_path": render_path(path),
            "papers": sorted(self.graph.papers_for(node_id)),
        }

    def _project(self, stage: ProjectStage,
                 bindings: list[dict[str, str]]
                 ) -> tuple[list[KGQLRow], int]:
        distinct: dict[tuple[str, ...], dict[str, str]] = {}
        for binding in bindings:
            key = tuple(binding[var] for var in stage.named_vars)
            distinct.setdefault(key, binding)
        ordered = sorted(
            distinct.items(),
            key=lambda item: tuple(_numeric_id(node_id)
                                   for node_id in item[0]),
        )
        total = len(ordered)
        if stage.limit is not None:
            ordered = ordered[:stage.limit]
        rows = []
        for _, binding in ordered:
            payloads = {var: self.node_payload(binding[var])
                        for var in dict.fromkeys(stage.returns)}
            rows.append(KGQLRow(
                bindings=payloads,
                papers=_row_papers(
                    [payloads[var]["papers"]
                     for var in dict.fromkeys(stage.returns)]),
            ))
        return rows, total


def _row_papers(per_var: list[list[str]]) -> list[str]:
    """The row's provenance: the papers supporting every returned node
    (set intersection) when several variables are returned — "papers
    linking X and Y" — or the single variable's own provenance."""
    if not per_var:
        return []
    if len(per_var) == 1:
        return list(per_var[0])
    linking = set(per_var[0])
    for papers in per_var[1:]:
        linking &= set(papers)
    return sorted(linking)
