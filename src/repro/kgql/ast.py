"""The typed KGQL AST.

Every node is a frozen dataclass, and every node renders back to
source via :meth:`Query.render` — the parser/renderer pair is a
round trip (``parse(q.render()) == q``), which the parser property
tests pin down.  Rendering is canonical (exact hop counts become
``*n..n``, same-operator boolean chains flatten), so a rendered query
is also the query's normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.kgql.lexer import quote_label

#: Edge types the graph supports and their inverses (``(a)<-[t]-(b)``
#: desugars to ``(a)-[INVERSE[t]]->(b)`` read right to left — but since
#: node order must be preserved, the parser instead stores the inverse
#: type on the forward edge).
EDGE_TYPES = ("child_of", "parent_of", "related")
INVERSE_EDGE = {"child_of": "parent_of", "parent_of": "child_of",
                "related": "related"}

#: Node fields predicates and projections may reference.
NODE_FIELDS = ("id", "label", "category", "depth", "papers")

#: Hop-bound ceiling accepted by the *parser*; a walk inside the
#: ceiling can still stop at the executor's ``MAX_BINDINGS``.
MAX_HOPS = 32


@dataclass(frozen=True)
class NodePattern:
    """``(var:"Label")`` — either part optional: ``(v)``, ``(:"X")``, ``()``."""

    var: str | None = None
    label: str | None = None

    def render(self) -> str:
        inner = self.var or ""
        if self.label is not None:
            inner += f":{quote_label(self.label)}"
        return f"({inner})"


@dataclass(frozen=True)
class EdgePattern:
    """``-[child_of*1..3]->`` — a typed traversal with hop bounds."""

    etype: str
    min_hops: int = 1
    max_hops: int = 1

    def render(self) -> str:
        bounds = ""
        if (self.min_hops, self.max_hops) != (1, 1):
            bounds = f"*{self.min_hops}..{self.max_hops}"
        return f"-[{self.etype}{bounds}]->"


@dataclass(frozen=True)
class Chain:
    """One pattern chain: nodes joined by edges (``len(edges) ==
    len(nodes) - 1``)."""

    nodes: tuple[NodePattern, ...]
    edges: tuple[EdgePattern, ...] = ()

    def render(self) -> str:
        parts = [self.nodes[0].render()]
        for edge, node in zip(self.edges, self.nodes[1:]):
            parts.append(edge.render())
            parts.append(node.render())
        return "".join(parts)


@dataclass(frozen=True)
class FieldRef:
    """``var.field`` inside a WHERE expression."""

    var: str
    field: str

    def render(self) -> str:
        return f"{self.var}.{self.field}"


@dataclass(frozen=True)
class Literal:
    """A string or numeric constant."""

    value: Union[str, int, float]

    def render(self) -> str:
        if isinstance(value := self.value, str):
            return quote_label(value)
        return repr(value)


Operand = Union[FieldRef, Literal]


@dataclass(frozen=True)
class Comparison:
    """``lhs op rhs`` where op ∈ ``= != < <= > >= CONTAINS``."""

    lhs: Operand
    op: str
    rhs: Operand

    def render(self) -> str:
        return f"{self.lhs.render()} {self.op} {self.rhs.render()}"


@dataclass(frozen=True)
class BoolOp:
    """An n-ary ``AND``/``OR`` (the parser flattens same-op chains)."""

    op: str  # "AND" | "OR"
    operands: "tuple[Expr, ...]"

    def render(self) -> str:
        parts = []
        for operand in self.operands:
            text = operand.render()
            # OR binds looser than AND: parenthesize a nested OR so the
            # rendered text re-parses to this exact tree.
            if isinstance(operand, BoolOp) and self.op == "AND":
                text = f"({text})"
            parts.append(text)
        return f" {self.op} ".join(parts)


@dataclass(frozen=True)
class NotExpr:
    """``NOT expr``."""

    operand: "Expr"

    def render(self) -> str:
        text = self.operand.render()
        if isinstance(self.operand, BoolOp):
            text = f"({text})"
        return f"NOT {text}"


Expr = Union[Comparison, BoolOp, NotExpr]


@dataclass(frozen=True)
class Query:
    """One full KGQL statement."""

    chains: tuple[Chain, ...]
    returns: tuple[str, ...]
    where: Expr | None = None
    limit: int | None = None

    def render(self) -> str:
        parts = ["MATCH ", ", ".join(chain.render()
                                     for chain in self.chains)]
        if self.where is not None:
            parts.append(f" WHERE {self.where.render()}")
        parts.append(" RETURN " + ", ".join(self.returns))
        if self.limit is not None:
            parts.append(f" LIMIT {self.limit}")
        return "".join(parts)

    def variables(self) -> tuple[str, ...]:
        """Named variables in first-appearance order."""
        seen: list[str] = []
        for chain in self.chains:
            for node in chain.nodes:
                if node.var is not None and node.var not in seen:
                    seen.append(node.var)
        return tuple(seen)
