"""End-to-end ``/v1/kg/query`` tests over real sockets.

Same harness as ``tests/test_gateway.py`` (BackgroundGateway on an
ephemeral port + the stdlib keep-alive client).
"""

from __future__ import annotations

import pytest

import repro.errors as errors_module
from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.gateway import (
    ERROR_STATUS,
    BackgroundGateway,
    GatewayClient,
    map_error,
)
from repro.gateway.routes import all_error_classes
from repro.serve.service import QueryService, ServeConfig

QUERY = 'MATCH (v:"Vaccines")-[parent_of*1..2]->(e) RETURN e LIMIT 5'


@pytest.fixture(scope="module")
def system():
    kg = CovidKG(CovidKGConfig(num_shards=2))
    kg.ingest(CorpusGenerator(GeneratorConfig(seed=29)).papers(10))
    return kg


@pytest.fixture(scope="module")
def gateway(system):
    config = ServeConfig(num_workers=2)
    with QueryService(system, config) as service:
        with BackgroundGateway(service) as gw:
            yield gw


@pytest.fixture()
def client(gateway):
    with GatewayClient("127.0.0.1", gateway.port) as cl:
        yield cl


class TestKgQueryRoute:
    def test_kgql_over_http_with_provenance(self, client):
        response = client.kg_query(QUERY)
        assert response.status == 200
        body = response.json()
        assert body["engine"] == "kg_query"
        value = body["value"]
        assert value["query"] == QUERY
        assert value["total_matches"] > 0
        row = value["rows"][0]
        node = row["bindings"]["e"]
        assert node["rendered_path"].startswith("COVID-19 > ")
        assert "papers" in row

    def test_nl_question_over_http(self, client):
        response = client.kg_query("what is under Vaccines", nl=True)
        assert response.status == 200
        value = response.json()["value"]
        # The response echoes the KGQL actually executed.
        assert value["query"].startswith("MATCH")
        labels = {row["bindings"]["c"]["label"]
                  for row in value["rows"]}
        assert "Side-effects" in labels

    def test_second_identical_query_is_cached(self, client):
        params = {"query": 'MATCH (v:"Masks") RETURN v'}
        first = client.get("/v1/kg/query", params=params)
        second = client.get("/v1/kg/query", params=params)
        assert first.status == second.status == 200
        assert second.json()["cached"]
        assert second.json()["value"] == first.json()["value"]

    def test_syntax_error_maps_to_400_with_caret(self, client):
        response = client.kg_query("MATCH (v:")
        assert response.status == 400
        error = response.json()["error"]
        assert error["code"] == "kgql_syntax"
        assert "^" in error["message"]
        assert "line 1" in error["message"]

    def test_unmatched_nl_maps_to_400_bad_kgql(self, client):
        response = client.kg_query("how is the weather", nl=True)
        assert response.status == 400
        assert response.json()["error"]["code"] == "bad_kgql"

    def test_missing_query_param_is_400(self, client):
        response = client.get("/v1/kg/query")
        assert response.status == 400
        assert response.json()["error"]["code"] == "bad_request"

    def test_bad_nl_flag_is_400(self, client):
        response = client.get(
            "/v1/kg/query", params={"query": QUERY, "nl": "maybe"})
        assert response.status == 400

    def test_walk_past_binding_ceiling_is_400_and_replays(self):
        """The executor's binding ceiling is the traversal backstop: a
        walk that outgrows it is a deterministic ``bad_kgql``, and the
        repeat replays from the negative cache without re-walking."""
        own = CovidKG(CovidKGConfig(num_shards=1))
        own.ingest(CorpusGenerator(GeneratorConfig(seed=29)).papers(4))
        own.kgql.max_bindings = 10
        walk = 'MATCH (a)-[related*1..4]->(b) RETURN a, b'
        with QueryService(own, ServeConfig(num_workers=1)) as service, \
                BackgroundGateway(service) as gw, \
                GatewayClient("127.0.0.1", gw.port) as cl:
            first, second = (cl.kg_query(walk) for _ in range(2))
            for response in (first, second):
                assert response.status == 400
                error = response.json()["error"]
                assert error["code"] == "bad_kgql"
                assert "10 intermediate bindings" in error["message"]
            stats = service.stats()
            assert stats["errors"]["kg_query"] == 1  # walked once ...
            assert stats["negative_hits"] == 1       # ... replayed once


class TestErrorMapExhaustiveness:
    def test_every_error_class_has_an_explicit_entry(self):
        missing = [
            cls.__name__ for cls in all_error_classes()
            if cls not in ERROR_STATUS
        ]
        assert missing == []

    def test_kgql_errors_map_to_400(self):
        status, code = map_error(errors_module.KGQLError("x"))
        assert (status, code) == (400, "bad_kgql")
        status, code = map_error(errors_module.KGQLSyntaxError("x"))
        assert (status, code) == (400, "kgql_syntax")
