"""KGQL executor tests: differential against brute-force enumeration.

The oracle enumerates *every* assignment of pattern variables to graph
nodes (|V|^k candidates) and checks the chains/WHERE directly — no
planning, no orientation, no pushdown.  The executor must produce
byte-identical JSON (modulo timing) on every generated graph/query
pair, which pins ordering, dedupe, LIMIT, and provenance semantics.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import KGQLError
from repro.kg.graph import KnowledgeGraph
from repro.kg.node import stem_terms
from repro.kg.ontology import seed_covid_graph
from repro.kgql import KGQLEngine, parse
from repro.kgql.ast import (
    BoolOp,
    Comparison,
    FieldRef,
    Literal,
    NotExpr,
)
from repro.kgql.executor import _numeric_id
from repro.kgql.plan import ANON_PREFIX


# -- brute-force oracle -----------------------------------------------------

def _oracle_neighbors(graph, node_id, etype):
    node = graph.node(node_id)
    if etype == "child_of":
        return [node.parent_id] if node.parent_id else []
    if etype == "parent_of":
        return list(node.children)
    out = list(node.children)
    if node.parent_id:
        out.append(node.parent_id)
    return out


def _oracle_reachable(graph, src, dst, etype, lo, hi):
    """Is there a walk of length lo..hi from src to dst?"""
    frontier = {src}
    if lo == 0 and src == dst:
        return True
    for hop in range(1, hi + 1):
        frontier = {
            n for f in frontier
            for n in _oracle_neighbors(graph, f, etype)
        }
        if hop >= lo and dst in frontier:
            return True
    return False


def _oracle_field(graph, node_id, field):
    node = graph.node(node_id)
    if field == "id":
        return node.node_id
    if field == "label":
        return node.label
    if field == "category":
        return node.category if node.category is not None else ""
    if field == "depth":
        return graph.depth(node_id)
    return len(graph.papers_for(node_id))


def _oracle_eval(graph, expr, binding):
    if isinstance(expr, BoolOp):
        results = [_oracle_eval(graph, op, binding)
                   for op in expr.operands]
        return all(results) if expr.op == "AND" else any(results)
    if isinstance(expr, NotExpr):
        return not _oracle_eval(graph, expr.operand, binding)
    assert isinstance(expr, Comparison)

    def value(operand):
        if isinstance(operand, Literal):
            return operand.value
        assert isinstance(operand, FieldRef)
        return _oracle_field(graph, binding[operand.var], operand.field)

    lhs, rhs = value(expr.lhs), value(expr.rhs)
    if expr.op == "CONTAINS":
        return stem_terms(str(rhs)) <= stem_terms(str(lhs))
    numeric = (int, float)
    compatible = (type(lhs) is type(rhs) or
                  (isinstance(lhs, numeric) and isinstance(rhs, numeric)))
    if expr.op == "=":
        return compatible and lhs == rhs
    if expr.op == "!=":
        return not compatible or lhs != rhs
    if not compatible:
        return False
    return {"<": lhs < rhs, "<=": lhs <= rhs,
            ">": lhs > rhs, ">=": lhs >= rhs}[expr.op]


def brute_force(graph, text):
    """All matches by exhaustive |V|^k enumeration over walk()."""
    query = parse(text)
    # Collect variables including anonymous patterns (existential).
    variables = []
    anon = itertools.count(1)
    chains = []
    for chain in query.chains:
        named = []
        for node in chain.nodes:
            var = node.var or f"{ANON_PREFIX}{next(anon)}"
            named.append((var, node.label))
            if var not in variables:
                variables.append(var)
        chains.append((named, chain.edges))
    node_ids = [node.node_id for node in graph.walk()]
    matches = set()
    for combo in itertools.product(node_ids, repeat=len(variables)):
        binding = dict(zip(variables, combo))
        ok = True
        for named, edges in chains:
            for (var, label) in named:
                if label is None:
                    continue
                wanted = {n.node_id for n in graph.find_by_label(label)}
                if binding[var] not in wanted:
                    ok = False
                    break
            if not ok:
                break
            for index, edge in enumerate(edges):
                src = binding[named[index][0]]
                dst = binding[named[index + 1][0]]
                if not _oracle_reachable(graph, src, dst, edge.etype,
                                         edge.min_hops, edge.max_hops):
                    ok = False
                    break
            if not ok:
                break
        if ok and query.where is not None:
            ok = _oracle_eval(graph, query.where, binding)
        if ok:
            named_vars = query.variables()
            matches.add(tuple(binding[v] for v in named_vars))
    named_vars = query.variables()
    ordered = sorted(matches, key=lambda ids: tuple(
        _numeric_id(i) for i in ids))
    total = len(ordered)
    if query.limit is not None:
        ordered = ordered[:query.limit]
    # Rows carry only the RETURNed variables; matches (and therefore
    # ordering, dedupe, and total_matches) span every named variable.
    positions = [named_vars.index(var) for var in query.returns]
    projected = [tuple(match[pos] for pos in positions)
                 for match in ordered]
    return list(query.returns), projected, total


def _result_rows(result, columns_vars):
    return [tuple(row.bindings[var]["id"]
                  for var in columns_vars)
            for row in result.rows]


# -- generated graphs -------------------------------------------------------

LABEL_POOL = ["Vaccines", "Side-effects", "Fever", "Masks", "Dosage",
              "Fever"]  # duplicates on purpose
CATEGORY_POOL = [None, "vaccines", "side_effects", "symptoms"]


def random_graph(seed, size=10):
    rng = random.Random(seed)
    graph = KnowledgeGraph("COVID-19")
    ids = [graph.root_id]
    for index in range(size):
        parent = rng.choice(ids)
        node_id = graph.add_node(
            rng.choice(LABEL_POOL),
            parent_id=parent,
            category=rng.choice(CATEGORY_POOL),
        )
        for paper in range(rng.randint(0, 2)):
            graph.node(node_id).add_provenance(
                f"paper-{rng.randint(1, 6)}")
        ids.append(node_id)
    return graph


DIFFERENTIAL_QUERIES = [
    'MATCH (v:"Fever") RETURN v',
    'MATCH (v) RETURN v LIMIT 4',
    'MATCH (a)-[parent_of]->(b) RETURN a, b',
    'MATCH (a:"Vaccines")-[parent_of*1..2]->(b) RETURN a, b',
    'MATCH (a)-[child_of*1..3]->(b:"Vaccines") RETURN a',
    'MATCH (a:"Fever")<-[parent_of*1..2]-(b) RETURN b LIMIT 3',
    'MATCH (a)-[related*1..2]->(b:"Fever") RETURN a, b',
    'MATCH (a)-[related*2]->(b) WHERE a.label CONTAINS "fever" '
    'RETURN a, b',
    'MATCH (v) WHERE v.depth > 1 AND v.category = "side_effects" '
    'RETURN v',
    'MATCH (v) WHERE NOT v.papers = 0 RETURN v',
    'MATCH (a:"Vaccines"), (b:"Fever") RETURN a, b LIMIT 5',
    'MATCH (a:"Vaccines")-[parent_of]->(x)-[parent_of]->(c) '
    'RETURN a, c',
    'MATCH (v) WHERE v.depth >= 1 OR v.label = "COVID-19" '
    'RETURN v LIMIT 6',
]


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("text", DIFFERENTIAL_QUERIES)
    def test_matches_brute_force(self, seed, text):
        graph = random_graph(seed)
        engine = KGQLEngine(graph)
        named_vars, expected_rows, expected_total = \
            brute_force(graph, text)
        result = engine.query(text)
        assert result.total_matches == expected_total
        assert _result_rows(result, named_vars) == expected_rows

    @pytest.mark.parametrize("seed", [5, 6])
    def test_deterministic_json(self, seed):
        """Identical queries produce byte-identical JSON bodies."""
        graph = random_graph(seed, size=12)
        engine = KGQLEngine(graph)
        text = ('MATCH (a)-[related*1..2]->(b:"Fever") '
                'RETURN a, b LIMIT 8')
        first = engine.query(text).to_json()
        second = engine.query(text).to_json()
        first.pop("seconds")
        second.pop("seconds")
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


class TestSemantics:
    def test_provenance_on_every_row(self):
        graph = seed_covid_graph()
        graph.node("n12").add_provenance("paper-7")  # Side-effects
        engine = KGQLEngine(graph)
        result = engine.query(
            'MATCH (v:"Side-effects") RETURN v LIMIT 1')
        row = result.rows[0]
        payload = row.bindings["v"]
        assert "paper-7" in payload["papers"]
        assert payload["rendered_path"].endswith("[[Side-effects]]")
        assert payload["path"][0] == "COVID-19"
        assert row.papers == payload["papers"]

    def test_multi_var_papers_intersect(self):
        graph = KnowledgeGraph("root")
        a = graph.add_node("Alpha", provenance="shared")
        b = graph.add_node("Beta", provenance="shared")
        graph.node(a).add_provenance("only-a")
        engine = KGQLEngine(graph)
        result = engine.query(
            'MATCH (a:"Alpha"), (b:"Beta") RETURN a, b')
        assert result.rows[0].papers == ["shared"]

    def test_walk_semantics_allow_revisits(self):
        # root - child: a related*2 walk returns to the start.
        graph = KnowledgeGraph("root")
        graph.add_node("Leaf")
        engine = KGQLEngine(graph)
        result = engine.query(
            'MATCH (a:"root")-[related*2]->(b) RETURN b')
        labels = [row.bindings["b"]["label"] for row in result.rows]
        assert labels == ["root"]

    def test_binding_cap_raises(self):
        graph = random_graph(9, size=8)
        engine = KGQLEngine(graph, max_bindings=10)
        with pytest.raises(KGQLError, match="bindings"):
            engine.query('MATCH (a)-[related*1..4]->(b) RETURN a, b')

    def test_nl_flag_routes_through_templates(self):
        engine = KGQLEngine(seed_covid_graph())
        result = engine.query("what is under Vaccines", nl=True)
        assert result.query.startswith("MATCH")
        assert result.total_matches > 0

    def test_explain_does_not_execute(self):
        engine = KGQLEngine(seed_covid_graph(), max_bindings=1)
        explained = engine.explain(
            'MATCH (a)-[related*1..4]->(b) RETURN a, b')
        assert explained == {
            "query": 'MATCH (a)-[related*1..4]->(b) RETURN a, b',
            "plan": "scan    a <- all nodes\n"
                    "expand  a -[related*1..4]-> b\n"
                    "project a, b",
        }

    def test_column_order_follows_return(self):
        engine = KGQLEngine(seed_covid_graph())
        result = engine.query(
            'MATCH (a:"Vaccines")-[parent_of]->(b) RETURN b, a LIMIT 1')
        assert result.columns == ["b", "a"]


# -- click a node: browsing is one parent_of / child_of hop ----------------

def _fused_graph():
    """The seed graph after 20 generated papers were ingested and fused."""
    system = CovidKG(CovidKGConfig(num_shards=2))
    system.ingest(CorpusGenerator(GeneratorConfig(seed=27)).papers(20))
    return system.graph


class TestClickANode:
    """Every answer a node click needs is one KGQL query from its id.

    Children are ``MATCH (x)-[parent_of]->(c) WHERE x.id = ...``, the
    parent the same query over ``child_of``, and every returned payload
    carries the node's root path and provenance papers.
    """

    @staticmethod
    def _expect(graph, nodes):
        return [
            (node.node_id,
             [item.label for item in graph.path_to(node.node_id)],
             sorted(graph.papers_for(node.node_id)))
            for node in sorted(nodes, key=lambda n: _numeric_id(n.node_id))
        ]

    @staticmethod
    def _click(engine, etype, node_id, var):
        result = engine.query(
            f'MATCH (x)-[{etype}]->({var}) WHERE x.id = "{node_id}" '
            f'RETURN {var}')
        return [row.bindings[var] for row in result.rows]

    def _answer(self, engine, etype, node_id, var):
        return [(payload["id"], payload["path"], payload["papers"])
                for payload in self._click(engine, etype, node_id, var)]

    @pytest.mark.parametrize("build", [seed_covid_graph, _fused_graph],
                             ids=["seed", "after-ingest"])
    def test_one_hop_queries_equal_the_graph(self, build):
        graph = build()
        engine = KGQLEngine(graph)
        if build is _fused_graph:
            # The ingest grew the graph and gave it provenance.
            assert len(graph) > len(seed_covid_graph())
            assert graph.papers_for(graph.root_id)
        for node in graph.walk():
            node_id = node.node_id
            assert self._answer(engine, "parent_of", node_id, "c") == \
                self._expect(graph, graph.children(node_id))
            parent = graph.parent(node_id)
            assert self._answer(engine, "child_of", node_id, "p") == \
                self._expect(graph, [parent] if parent else [])

    def test_root_is_where_a_click_starts(self):
        graph = seed_covid_graph()
        engine = KGQLEngine(graph)
        root = graph.node(graph.root_id)
        assert root.label == "COVID-19"
        assert self._click(engine, "child_of", root.node_id, "p") == []
        children = self._click(engine, "parent_of", root.node_id, "c")
        assert any(child["label"] == "Vaccines" for child in children)
        assert all(child["depth"] == 1 for child in children)

    def test_entering_a_child_extends_the_path(self):
        graph = seed_covid_graph()
        engine = KGQLEngine(graph)
        children = self._click(engine, "parent_of", graph.root_id, "c")
        vaccines = next(c for c in children if c["label"] == "Vaccines")
        assert vaccines["path"] == ["COVID-19", "Vaccines"]

    def test_node_payload_names_parent_and_children(self):
        graph = seed_covid_graph()
        engine = KGQLEngine(graph)
        vaccines = graph.find_by_label("Vaccines")[0].node_id
        parents = self._click(engine, "child_of", vaccines, "p")
        assert [parent["label"] for parent in parents] == ["COVID-19"]
        children = self._click(engine, "parent_of", vaccines, "c")
        assert any(child["label"] == "Pfizer" for child in children)
