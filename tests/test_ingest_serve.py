"""Streaming ingest through the serving tier and the HTTP gateway.

Covers the serve-side contract (dedicated writer pool, cache
invalidation on commit *and* rollback, negative-cache un-negativing)
and the full wire path: ``POST /v1/ingest`` with typed error mapping,
reads flowing concurrently with commits.
"""

import threading
from concurrent.futures import wait

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import KGQLSyntaxError
from repro.gateway.client import GatewayClient
from repro.gateway.server import BackgroundGateway
from repro.ingest.engine import IngestEngine
from repro.serve.service import GatewayConfig, QueryService, ServeConfig


def _corpus(count):
    return CorpusGenerator(GeneratorConfig(
        seed=53, papers_per_week=20, tables_per_paper=(1, 2),
    )).papers(count)


def _page_ids(results):
    return [(hit.paper_id, hit.score) for hit in results]


@pytest.fixture()
def stack(tmp_path):
    """(system, service-with-engine, held-back papers)."""
    papers = _corpus(50)
    system = CovidKG(CovidKGConfig(num_shards=2))
    system.ingest(papers[:35])
    engine = IngestEngine(system, tmp_path)
    service = QueryService(system, ServeConfig(num_workers=2))
    service.attach_ingest(engine)
    try:
        yield system, service, papers[35:]
    finally:
        service.close()
        engine.close()


class TestServiceIngest:
    def test_commit_invalidates_cached_pages(self, stack):
        system, service, held = stack
        cold = service.query("all_fields", query="covid vaccine")
        assert service.query("all_fields",
                             query="covid vaccine").cached
        receipt = service.submit_ingest(held[:10]).result(timeout=30)
        assert receipt.engine == "ingest"
        assert receipt.value["accepted"] == 10
        fresh = service.query("all_fields", query="covid vaccine")
        assert not fresh.cached
        assert fresh.versions != cold.versions

    def test_rollback_invalidates_cached_pages(self, stack):
        system, service, held = stack
        before = service.query("all_fields", query="covid vaccine")
        service.submit_ingest(held[:10]).result(timeout=30)
        service.ingest_engine.rollback("base")
        after = service.query("all_fields", query="covid vaccine")
        assert not after.cached  # no counter ever repeats
        assert _page_ids(after.value) == _page_ids(before.value)

    def test_ingest_rejection_propagates_typed(self, stack):
        from repro.errors import IngestRejectedError

        system, service, held = stack
        bad = dict(held[0])
        bad.pop("title")
        with pytest.raises(IngestRejectedError):
            service.submit_ingest([bad]).result(timeout=30)

    def test_redelivery_without_an_engine_accepts_nothing(self):
        """The bare ``system.ingest`` path counts what landed, not what
        was sent: a batch redelivered under ``skip_duplicates`` is 0."""
        papers = _corpus(12)
        system = CovidKG(CovidKGConfig(num_shards=2))
        system.ingest(papers[:8])
        with QueryService(system, ServeConfig(num_workers=1)) as service:
            assert service.ingest_engine is None
            first = service.submit_ingest(
                papers[6:], skip_duplicates=True).result(timeout=30)
            assert first.value["accepted"] == 4  # two of six were known
            again = service.submit_ingest(
                papers[6:], skip_duplicates=True).result(timeout=30)
            assert again.value["accepted"] == 0
            assert len(system.store) == 12

    def test_negative_cache_unnegatives_after_ingest(self, stack):
        system, service, held = stack
        bad_query = 'MATCH (v:"Vaccines" RETURN v'  # unbalanced paren
        with pytest.raises(KGQLSyntaxError):
            service.query("kg_query", query=bad_query)
        with pytest.raises(KGQLSyntaxError):
            service.query("kg_query", query=bad_query)
        negatives = service.stats()["negative_hits"]
        assert negatives >= 1  # the repeat replayed the cached failure
        service.submit_ingest(held[:3]).result(timeout=30)
        # Version bump: the remembered failure is stale, so the next
        # attempt recomputes instead of replaying it.
        with pytest.raises(KGQLSyntaxError):
            service.query("kg_query", query=bad_query)
        assert service.stats()["negative_hits"] == negatives

    def test_reads_flow_while_committing(self, stack):
        system, service, held = stack
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    service.query("all_fields", query="antibody")
                except Exception as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            futures = [service.submit_ingest([paper])
                       for paper in held[:6]]
            done, pending = wait(futures, timeout=60)
            assert not pending
            for future in done:
                future.result()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert errors == []
        assert service.query("all_fields", query="antibody") is not None
        assert len(system.store) == 41

    def test_stats_expose_ingest_section(self, stack):
        system, service, held = stack
        service.submit_ingest(held[:5]).result(timeout=30)
        stats = service.stats()["ingest"]
        assert stats["attached"]
        assert stats["seq"] == 1
        assert "batch-000001" in stats["snapshots"]
        assert set(stats["delta_rows"]) == \
            {"all_fields", "title_abstract", "table"}
        assert stats["delta_segments"] == 0  # no kernel search yet
        service.query("all_fields", query="antibody")
        service.submit_ingest(held[5:9]).result(timeout=30)
        service.query("all_fields", query="antibody")
        stats = service.stats()["ingest"]
        assert stats["delta_rows"]["all_fields"] == 4
        assert stats["delta_segments"] == 1


class TestGatewayIngest:
    @pytest.fixture()
    def gateway(self, stack):
        system, service, held = stack
        service.config.gateway = GatewayConfig(port=0)
        with BackgroundGateway(service) as background:
            with GatewayClient("127.0.0.1", background.port) as client:
                yield client, held

    def test_post_commits_and_search_sees_it(self, gateway):
        client, held = gateway
        before = client.search("all_fields", query="covid")
        response = client.ingest(held[:10])
        assert response.status == 200
        value = response.json()["value"]
        assert value["accepted"] == 10
        assert value["snapshot"] == "batch-000001"
        after = client.search("all_fields", query="covid")
        assert after.json()["versions"] != \
            before.json()["versions"]

    def test_duplicate_batch_maps_to_422(self, gateway):
        client, held = gateway
        assert client.ingest(held[:3]).status == 200
        redelivery = client.ingest(held[:3])
        assert redelivery.status == 422
        assert redelivery.reason == "Unprocessable Content"
        error = redelivery.json()["error"]
        assert error["code"] == "ingest_rejected"
        retried = client.ingest(held[:3], skip_duplicates=True)
        assert retried.status == 200
        assert retried.json()["value"]["accepted"] == 0

    def test_malformed_bodies_map_to_400(self, gateway):
        client, held = gateway
        for body in (b"", b"not json", b'{"papers": []}',
                     b'{"papers": 7}', b'"just a string"',
                     b'{"papers": [{}], "skip_duplicates": "yes"}'):
            response = client.request(
                "POST", "/v1/ingest", body=body,
                headers={"Content-Type": "application/json"})
            assert response.status == 400, body
            assert response.json()["error"]["code"] == "bad_request"

    def test_invalid_paper_maps_to_422(self, gateway):
        client, held = gateway
        bad = dict(held[0])
        bad["publish_time"] = "soonish"
        response = client.ingest([bad])
        assert response.status == 422
        rejects = response.json()["error"]
        assert rejects["code"] == "ingest_rejected"

    def test_get_maps_to_405_with_allow(self, gateway):
        client, held = gateway
        response = client.get("/v1/ingest")
        assert response.status == 405
        assert response.headers.get("allow") == "POST"
        assert response.json()["error"]["code"] == "method_not_allowed"

    def test_ingest_appears_in_metrics(self, gateway):
        client, held = gateway
        client.ingest(held[:2])
        text = client.metrics_text()
        assert 'covidkg_gateway_requests_total{endpoint="ingest"}' \
            in text
