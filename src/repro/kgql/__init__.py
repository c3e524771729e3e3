"""KGQL — the declarative graph query language over the knowledge graph.

The paper's headline artifact is a KG users *interrogate*; keyword
search (:mod:`repro.kg.search`) only finds nodes by label.  KGQL adds
structural questions — typed-edge traversal with hop bounds, path
patterns between node sets, subgraph matching with variable binding —
with provenance (source-paper ids and rendered KG paths) carried in
every result row.  The pipeline is the classic four-stage one:

* :mod:`repro.kgql.lexer` / :mod:`repro.kgql.parser` — hand-rolled
  tokenizer and recursive-descent parser producing a typed AST
  (:mod:`repro.kgql.ast`) with caret-position syntax diagnostics;
* :mod:`repro.kgql.plan` — the logical plan (scan → expand → filter →
  project) with label-anchored chain orientation and predicate
  pushdown;
* :mod:`repro.kgql.executor` — :class:`~repro.kgql.executor.KGQLEngine`
  evaluates plans against a :class:`~repro.kg.graph.KnowledgeGraph`
  with deterministic row ordering (differentially tested against
  brute-force enumeration);
* :mod:`repro.kgql.nl` — the rule-based natural-language front end
  translating question templates ("side effects of X", "papers linking
  X and Y") into KGQL, mirroring CGEx's template approach.

Served end to end as ``/v1/kg/query`` through the gateway: bounded by
the parser's hop ceiling and the executor's binding ceiling, cached
under the KG version counter, and mapped onto typed HTTP errors
(syntax → 400 with caret).
"""

from repro.kgql.ast import (
    Chain,
    Comparison,
    EdgePattern,
    FieldRef,
    Literal,
    NodePattern,
    Query,
)
from repro.kgql.executor import KGQLEngine, KGQLResult, KGQLRow
from repro.kgql.nl import NLTranslation, translate
from repro.kgql.parser import parse
from repro.kgql.plan import LogicalPlan, plan_query

__all__ = [
    "Chain",
    "Comparison",
    "EdgePattern",
    "FieldRef",
    "Literal",
    "NodePattern",
    "Query",
    "KGQLEngine",
    "KGQLResult",
    "KGQLRow",
    "NLTranslation",
    "translate",
    "parse",
    "LogicalPlan",
    "plan_query",
]
