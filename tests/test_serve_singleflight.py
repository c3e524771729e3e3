"""Single-flight miss collapsing and negative caching in the serve tier."""

import threading

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import QueryError
from repro.serve.cache import ResultCache
from repro.serve.service import QueryService, ServeConfig

VERSIONS = (1,)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def cache(clock):
    return ResultCache(max_entries=8, ttl_seconds=100.0,
                       negative_ttl_seconds=5.0, clock=clock)


class TestClaim:
    def test_leader_then_hit(self, cache):
        status, flight, _ = cache.claim("k", VERSIONS)
        assert status == "leader"
        cache.complete(flight, VERSIONS, "value")
        assert cache.claim("k", VERSIONS) == ("hit", "value", None)
        assert cache.inflight == 0

    def test_second_claim_is_follower(self, cache):
        _, flight, _ = cache.claim("k", VERSIONS)
        status, other, _ = cache.claim("k", VERSIONS)
        assert status == "follower"
        assert other is flight
        cache.complete(flight, VERSIONS, "v")
        assert flight.future.result(timeout=1) == "v"

    def test_version_change_makes_new_leader(self, cache):
        _, flight, _ = cache.claim("k", VERSIONS)
        status, newer, _ = cache.claim("k", (2,))
        assert status == "leader"
        assert newer is not flight
        # The superseded flight completes without clobbering its successor.
        cache.complete(flight, VERSIONS, "old")
        assert cache.inflight == 1

    def test_transient_failure_not_cached(self, cache):
        _, flight, _ = cache.claim("k", VERSIONS)
        cache.fail(flight, RuntimeError("shard flapped"))
        with pytest.raises(RuntimeError):
            flight.future.result(timeout=1)
        status, _, _ = cache.claim("k", VERSIONS)
        assert status == "leader"  # next request recomputes

    def test_negative_failure_replayed(self, cache):
        _, flight, _ = cache.claim("k", VERSIONS)
        error = QueryError("malformed")
        cache.fail(flight, error, negative=True)
        status, replayed, _ = cache.claim("k", VERSIONS)
        assert status == "negative"
        assert replayed is error

    def test_negative_entry_expires(self, cache, clock):
        _, flight, _ = cache.claim("k", VERSIONS)
        cache.fail(flight, QueryError("bad"), negative=True)
        clock.advance(5.1)  # past negative_ttl_seconds=5.0
        status, _, _ = cache.claim("k", VERSIONS)
        assert status == "leader"

    def test_negative_entry_invalidated_by_version(self, cache):
        _, flight, _ = cache.claim("k", VERSIONS)
        cache.fail(flight, QueryError("bad"), negative=True)
        status, _, _ = cache.claim("k", (2,))
        assert status == "leader"  # data changed: retry for real

    def test_positive_ttl_still_applies(self, cache, clock):
        _, flight, _ = cache.claim("k", VERSIONS)
        cache.complete(flight, VERSIONS, "v")
        clock.advance(100.1)
        status, _, _ = cache.claim("k", VERSIONS)
        assert status == "leader"
        assert cache.stats.expirations == 1


def _corpus(count=30):
    return CorpusGenerator(GeneratorConfig(
        seed=41, papers_per_week=15, tables_per_paper=(0, 1),
    )).papers(count)


@pytest.fixture(scope="module")
def system():
    kg = CovidKG(CovidKGConfig(num_shards=2))
    kg.ingest(_corpus())
    return kg


class TestServiceSingleFlight:
    def test_concurrent_identical_misses_compute_once(self, system):
        hammer = 12
        computations = []
        release = threading.Event()
        entered = threading.Event()

        with QueryService(system, ServeConfig(num_workers=2)) as service:
            real = service._dispatch["all_fields"]

            def slow(query, page=1):
                computations.append(query)
                entered.set()
                assert release.wait(timeout=30)
                return real(query=query, page=page)

            service._dispatch["all_fields"] = slow
            futures = [
                service.submit("all_fields", query="vaccine")
                for _ in range(hammer)
            ]
            assert entered.wait(timeout=10)  # leader is inside the engine
            release.set()
            results = [future.result(timeout=30) for future in futures]
            stats = service.stats()

        # Exactly one underlying computation for N identical misses.
        assert len(computations) == 1
        leaders = [r for r in results if not r.collapsed and not r.cached]
        followers = [r for r in results if r.collapsed]
        assert len(leaders) == 1
        assert len(followers) == hammer - 1
        values = {tuple(hit.paper_id for hit in r.value) for r in results}
        assert len(values) == 1  # everyone saw the same page
        assert stats["collapsed_misses"] == hammer - 1
        assert stats["cache"]["misses"] == 1

    def test_followers_share_leader_failure(self, system):
        release = threading.Event()
        entered = threading.Event()

        with QueryService(system, ServeConfig(num_workers=2)) as service:
            def explode(query, page=1):
                entered.set()
                assert release.wait(timeout=30)
                raise RuntimeError("backend down")

            service._dispatch["all_fields"] = explode
            futures = [
                service.submit("all_fields", query="variant")
                for _ in range(4)
            ]
            assert entered.wait(timeout=10)
            release.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="backend down"):
                    future.result(timeout=30)
            # Transient failure: nothing cached, next claim recomputes.
            assert service.cache.inflight == 0

    def test_negative_caching_replays_query_errors(self, system):
        computations = []

        with QueryService(system, ServeConfig(num_workers=2)) as service:
            def bad_request(query, page=1):
                computations.append(query)
                raise QueryError("unbalanced quotes")

            service._dispatch["all_fields"] = bad_request
            with pytest.raises(QueryError):
                service.query("all_fields", query='"broken')
            for _ in range(3):  # replayed from the negative cache
                with pytest.raises(QueryError, match="unbalanced quotes"):
                    service.query("all_fields", query='"broken')
            stats = service.stats()

        assert len(computations) == 1
        assert stats["negative_hits"] == 3
