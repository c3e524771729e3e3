"""KGQL logical plans: AST → ordered stages.

The planner is deliberately small but does the two things that matter
on this workload:

* **label-anchored chain orientation** — a chain whose only label sits
  on its *last* node (``(a)-[child_of*1..5]->(b:"Vaccines")``) is
  reversed so the scan starts from the few labeled candidates instead
  of every node in the graph (edge types invert:
  ``child_of`` ↔ ``parent_of``);
* **predicate pushdown** — each top-level ``AND`` conjunct of the WHERE
  clause runs at the earliest stage where all its variables are bound,
  so filters prune bindings before later expansions multiply them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.kgql.ast import (
    INVERSE_EDGE,
    BoolOp,
    Chain,
    Comparison,
    EdgePattern,
    Expr,
    FieldRef,
    NodePattern,
    NotExpr,
    Query,
)

#: Prefix of planner-invented names for anonymous node patterns; these
#: bind like variables during execution but are existential — result
#: rows dedupe on *named* variables only.
ANON_PREFIX = "_anon"


@dataclass(frozen=True)
class ScanStage:
    """Bind ``var`` to label-index candidates (or every node), or —
    when ``var`` is already bound by an earlier chain — constrain the
    existing binding to the label."""

    var: str
    label: str | None

    def describe(self) -> str:
        source = f'label {self.label!r}' if self.label is not None \
            else "all nodes"
        return f"scan    {self.var} <- {source}"


@dataclass(frozen=True)
class ExpandStage:
    """Traverse ``etype`` edges ``min_hops..max_hops`` times from
    ``src``, binding (or checking, if already bound) ``dst``."""

    src: str
    dst: str
    etype: str
    min_hops: int
    max_hops: int
    dst_label: str | None

    def describe(self) -> str:
        bounds = f"*{self.min_hops}..{self.max_hops}"
        text = (f"expand  {self.src} -[{self.etype}{bounds}]-> "
                f"{self.dst}")
        if self.dst_label is not None:
            text += f" (label {self.dst_label!r})"
        return text


@dataclass(frozen=True)
class FilterStage:
    """Evaluate one pushed-down WHERE conjunct over each binding."""

    expr: Expr

    def describe(self) -> str:
        return f"filter  {self.expr.render()}"


@dataclass(frozen=True)
class ProjectStage:
    """Dedupe on named variables, order deterministically, apply
    LIMIT, and render provenance-bearing rows."""

    returns: tuple[str, ...]
    named_vars: tuple[str, ...]
    limit: int | None

    def describe(self) -> str:
        text = f"project {', '.join(self.returns)}"
        if self.limit is not None:
            text += f" limit {self.limit}"
        return text


Stage = ScanStage | ExpandStage | FilterStage | ProjectStage


@dataclass(frozen=True)
class LogicalPlan:
    """The executable stage list for one query."""

    query: Query
    stages: tuple[Stage, ...]
    #: Named (user-declared) variables in first-appearance order; the
    #: dedupe/ordering key of the result set.
    named_vars: tuple[str, ...]

    def explain(self) -> str:
        return "\n".join(stage.describe() for stage in self.stages)


def _expr_vars(expr: Expr) -> set[str]:
    found: set[str] = set()
    stack: list = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, Comparison):
            stack.extend((item.lhs, item.rhs))
        elif isinstance(item, BoolOp):
            stack.extend(item.operands)
        elif isinstance(item, NotExpr):
            stack.append(item.operand)
        elif isinstance(item, FieldRef):
            found.add(item.var)
    return found


def _conjuncts(where: Expr | None) -> list[Expr]:
    if where is None:
        return []
    if isinstance(where, BoolOp) and where.op == "AND":
        return list(where.operands)
    return [where]


def _name_nodes(query: Query) -> list[Chain]:
    """Replace anonymous node patterns with planner-generated names."""
    counter = itertools.count(1)
    chains = []
    for chain in query.chains:
        nodes = tuple(
            node if node.var is not None else
            NodePattern(var=f"{ANON_PREFIX}{next(counter)}",
                        label=node.label)
            for node in chain.nodes
        )
        chains.append(Chain(nodes=nodes, edges=chain.edges))
    return chains


def _orient(chain: Chain, bound: set[str]) -> Chain:
    """Reverse a chain when its far end is the better anchor.

    A chain is reversed when its first node is neither already bound
    nor labeled, and its last node is — turning "scan everything, walk
    forward" into "scan the labeled few, walk backward".
    """
    if len(chain.nodes) < 2:
        return chain
    head, tail = chain.nodes[0], chain.nodes[-1]
    head_anchored = head.var in bound or head.label is not None
    tail_anchored = tail.var in bound or tail.label is not None
    if head_anchored or not tail_anchored:
        return chain
    nodes = tuple(reversed(chain.nodes))
    edges = tuple(
        EdgePattern(etype=INVERSE_EDGE[edge.etype],
                    min_hops=edge.min_hops, max_hops=edge.max_hops)
        for edge in reversed(chain.edges)
    )
    return Chain(nodes=nodes, edges=edges)


def plan_query(query: Query) -> LogicalPlan:
    """Compile one parsed query into an ordered stage list."""
    chains = _name_nodes(query)
    named_vars = query.variables()
    pending = [(conjunct, _expr_vars(conjunct))
               for conjunct in _conjuncts(query.where)]
    stages: list[Stage] = []
    bound: set[str] = set()

    def flush_filters() -> None:
        remaining = []
        for conjunct, needed in pending:
            if needed <= bound:
                stages.append(FilterStage(expr=conjunct))
            else:
                remaining.append((conjunct, needed))
        pending[:] = remaining

    for chain in chains:
        chain = _orient(chain, bound)
        start = chain.nodes[0]
        if start.var not in bound or start.label is not None:
            stages.append(ScanStage(var=start.var, label=start.label))
            bound.add(start.var)
            flush_filters()
        for position, (edge, node) in enumerate(
                zip(chain.edges, chain.nodes[1:])):
            previous = chain.nodes[position]  # src of this edge
            stages.append(ExpandStage(
                src=previous.var, dst=node.var, etype=edge.etype,
                min_hops=edge.min_hops, max_hops=edge.max_hops,
                dst_label=node.label,
            ))
            bound.add(node.var)
            flush_filters()
    flush_filters()
    stages.append(ProjectStage(
        returns=query.returns, named_vars=named_vars,
        limit=query.limit,
    ))
    return LogicalPlan(query=query, stages=tuple(stages),
                       named_vars=named_vars)

