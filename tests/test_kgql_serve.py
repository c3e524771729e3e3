"""The ``kg_query`` engine through :class:`QueryService`.

Covers the serving contract for declarative graph queries: result
caching keyed on the KG version (invalidated by ``touch()``) and
negative caching of deterministic KGQL errors.
"""

from __future__ import annotations

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import KGQLSyntaxError
from repro.kgql import KGQLResult
from repro.serve.service import ENGINES, QueryService, ServeConfig


@pytest.fixture(scope="module")
def system():
    kg = CovidKG(CovidKGConfig(num_shards=2))
    kg.ingest(CorpusGenerator(GeneratorConfig(seed=11)).papers(8))
    return kg


@pytest.fixture()
def service(system):
    with QueryService(system, ServeConfig(num_workers=2)) as svc:
        yield svc


QUERY = 'MATCH (v:"Vaccines")-[parent_of*1..2]->(e) RETURN e LIMIT 5'


class TestServing:
    def test_kg_query_is_a_registered_engine(self):
        assert "kg_query" in ENGINES

    def test_serves_provenance_bearing_result(self, service):
        served = service.query("kg_query", query=QUERY)
        assert isinstance(served.value, KGQLResult)
        assert served.value.total_matches > 0
        row = served.value.rows[0]
        assert "rendered_path" in row.bindings["e"]

    def test_identical_query_hits_cache(self, service):
        first = service.query("kg_query", query=QUERY)
        second = service.query("kg_query", query=QUERY)
        assert not first.cached
        assert second.cached
        assert second.value is first.value

    def test_touch_invalidates(self, system, service):
        service.query("kg_query", query=QUERY)
        system.graph.touch()
        refreshed = service.query("kg_query", query=QUERY)
        assert not refreshed.cached

    def test_nl_parameter_is_part_of_the_key(self, service):
        nl = service.query("kg_query", query="what is under Vaccines",
                           nl=True)
        assert not nl.cached
        assert nl.value.query.startswith("MATCH")
        again = service.query("kg_query",
                              query="what is under Vaccines", nl=True)
        assert again.cached

    def test_syntax_error_surfaces_and_negative_caches(self, system):
        with QueryService(system, ServeConfig(num_workers=1)) as svc:
            with pytest.raises(KGQLSyntaxError):
                svc.query("kg_query", query="MATCH (v:")
            before = svc.stats()["negative_hits"]
            with pytest.raises(KGQLSyntaxError):
                svc.query("kg_query", query="MATCH (v:")
            assert svc.stats()["negative_hits"] == before + 1

