"""Integration tests for the QueryService serving tier."""

import random
import threading

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import (
    QueryError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.service import QueryService, ServeConfig


def _corpus(seed, count, start=0):
    """``count`` papers; ``start`` offsets ids so batches never collide
    (the generator numbers paper_ids sequentially regardless of seed)."""
    papers = CorpusGenerator(GeneratorConfig(
        seed=seed, papers_per_week=15, tables_per_paper=(1, 2),
    )).papers(start + count)
    return papers[start:]


def _page_ids(results):
    return [(hit.paper_id, hit.score) for hit in results]


@pytest.fixture(scope="module")
def system():
    kg = CovidKG(CovidKGConfig(num_shards=3))
    kg.ingest(_corpus(31, 40))
    return kg


@pytest.fixture()
def service(system):
    with QueryService(system, ServeConfig(num_workers=2)) as svc:
        yield svc


class TestAnswersMatchDirect:
    def test_all_fields(self, service, system):
        direct = system.search("vaccine side effects", page=1)
        served = service.query("all_fields",
                               query="vaccine side effects", page=1)
        assert _page_ids(served.value) == _page_ids(direct)
        assert served.value.total_matches == direct.total_matches

    def test_title_abstract(self, service, system):
        direct = system.search_fields(abstract="vaccine")
        served = service.query("title_abstract", abstract="vaccine")
        assert _page_ids(served.value) == _page_ids(direct)

    def test_table(self, service, system):
        direct = system.search_tables("dosage")
        served = service.query("table", query="dosage")
        assert _page_ids(served.value) == _page_ids(direct)

    def test_kg(self, service, system):
        direct = system.search_graph("side effects", top_k=5)
        served = service.query("kg", query="side effects", top_k=5)
        assert [h.node.node_id for h in served.value] == \
            [h.node.node_id for h in direct]

    def test_unknown_engine_rejected(self, service):
        with pytest.raises(QueryError):
            service.query("regex_all_the_things", query="x")
        # meta_profile is a library call (CovidKG.meta_profile), not an
        # engine: no route serves it.
        with pytest.raises(QueryError, match="unknown engine"):
            service.submit("meta_profile")


class TestCaching:
    def test_normalized_repeats_hit(self, service):
        cold = service.query("all_fields", query="vaccine")
        warm = service.query("all_fields", query="  VACCINE ")
        assert not cold.cached and warm.cached
        assert _page_ids(warm.value) == _page_ids(cold.value)
        stats = service.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["misses"] >= 1

    def test_pages_cached_separately(self, service):
        one = service.query("all_fields", query="covid", page=1)
        two = service.query("all_fields", query="covid", page=2)
        assert not two.cached
        assert _page_ids(one.value) != _page_ids(two.value)

    def test_stats_report_latency_percentiles(self, service):
        for _ in range(5):
            service.query("all_fields", query="vaccine")
        latency = service.stats()["latency"]
        assert latency["overall"]["count"] >= 5
        for label in ("p50_ms", "p95_ms", "p99_ms"):
            assert latency["overall"][label] is not None
            assert latency["overall"][label] >= 0.0


class TestInvalidation:
    def test_cached_result_refreshes_after_ingest(self):
        """The acceptance-criterion test: pre-ingest cache entries must
        not survive an ingest that adds a matching paper."""
        system = CovidKG(CovidKGConfig(num_shards=2))
        system.ingest(_corpus(77, 20))
        with QueryService(system) as svc:
            query = "vaccine side effects"
            before = svc.query("all_fields", query=query)
            assert svc.query("all_fields", query=query).cached

            new_batch = _corpus(78, 5, start=20)
            svc.ingest(new_batch)

            after = svc.query("all_fields", query=query)
            assert not after.cached, \
                "ingest must invalidate the cached page"
            direct = system.search(query)
            assert _page_ids(after.value) == _page_ids(direct)
            assert after.value.total_matches >= before.value.total_matches
            assert svc.stats()["cache"]["invalidations"] >= 1

    def test_kg_results_refresh_after_fusion_writes(self):
        system = CovidKG(CovidKGConfig(num_shards=2))
        system.ingest(_corpus(79, 10))
        with QueryService(system) as svc:
            svc.query("kg", query="side effects")
            assert svc.query("kg", query="side effects").cached
            svc.ingest(_corpus(80, 5, start=10))
            refreshed = svc.query("kg", query="side effects")
            assert not refreshed.cached
            direct = system.search_graph("side effects")
            assert [h.node.node_id for h in refreshed.value] == \
                [h.node.node_id for h in direct]


class TestAdmissionControl:
    def test_overload_sheds_instead_of_hanging(self, system):
        config = ServeConfig(num_workers=1, max_queue=2)
        with QueryService(system, config) as svc:
            release = threading.Event()
            started = threading.Event()

            def occupy_worker():
                started.set()
                release.wait(timeout=10)

            blocker = svc._pool.submit(occupy_worker)
            assert started.wait(timeout=5)
            with pytest.raises(ServiceOverloadedError):
                for i in range(8):  # distinct queries: no cache hits
                    svc.submit("all_fields", query=f"vaccine {i}")
            release.set()
            blocker.result(timeout=5)
            assert svc.stats()["shed"] >= 1

    def test_closed_service_rejects(self, system):
        svc = QueryService(system)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.query("all_fields", query="vaccine")
        with pytest.raises(ServiceClosedError):
            svc.ingest([])


class TestConcurrentWorkload:
    def test_concurrent_mixed_reads_and_ingest(self):
        """Property-style: under a racing read/ingest workload the
        service must stay exception-free, and once quiescent every
        query must answer exactly as the bare system does."""
        system = CovidKG(CovidKGConfig(num_shards=2))
        system.ingest(_corpus(90, 15))
        batches = [_corpus(91 + i, 4, start=15 + 4 * i)
                   for i in range(3)]
        queries = ["vaccine", "side effects", "dosage symptoms",
                   "covid children", "pfizer trial"]
        errors = []
        served_pages = []

        with QueryService(system, ServeConfig(num_workers=4)) as svc:
            def reader(seed):
                rng = random.Random(seed)
                try:
                    for _ in range(25):
                        query = rng.choice(queries)
                        result = svc.query("all_fields", query=query,
                                           page=1)
                        served_pages.append(
                            (query, result.versions,
                             _page_ids(result.value))
                        )
                except Exception as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)

            def writer():
                try:
                    for batch in batches:
                        svc.ingest(batch)
                except Exception as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)

            threads = [threading.Thread(target=reader, args=(s,))
                       for s in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors, f"workload raised: {errors!r}"

            # Same query + same data-version snapshot => identical page,
            # no matter which thread served it or whether it was cached.
            by_key = {}
            for query, versions, page in served_pages:
                key = (query, versions)
                assert by_key.setdefault(key, page) == page

            # Quiescent equivalence: the served answer is exactly the
            # direct CovidKG answer for every query in the mix.
            for query in queries:
                served = svc.query("all_fields", query=query, page=1)
                direct = system.search(query, page=1)
                assert _page_ids(served.value) == _page_ids(direct)
                assert served.value.total_matches == direct.total_matches


class TestServeStatsCli:
    def test_serve_stats_verb(self, tmp_path, capsys):
        from repro.api.persistence import save_system
        from repro.cli import main

        system = CovidKG(CovidKGConfig(num_shards=2))
        system.ingest(_corpus(55, 12))
        save_system(system, tmp_path / "sys")

        exit_code = main([
            "serve-stats", "--system", str(tmp_path / "sys"),
            "--requests", "10", "--workers", "2", "vaccine",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "cache.hits" in out
        assert "latency.overall.p95_ms" in out
        assert "matches for 'vaccine'" in out
