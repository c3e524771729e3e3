"""Differential test: cluster serving must equal single-process serving.

Boots a *real* cluster — two replica gateway subprocesses over common
shards, shared cache, router — and holds its answers against an
identically built single-process system, across an ingest commit.  The
property under test is the shared cache's invalidation contract: after
a commit fans out, no replica may ever serve a pre-commit cached page,
whether the page would come from its own L1 or from the shared tier
another replica warmed.
"""

from __future__ import annotations

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.cluster.runner import ClusterConfig, ClusterRunner
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.gateway import GatewayClient

SEED = 11
BASE_PAPERS = 20
SHARDS = 2
QUERY = "vaccine trial"


def _papers(count, start=0):
    # Mirrors ClusterRunner._build_system's generator settings so the
    # reference system and the cluster serve the same corpus.
    papers = CorpusGenerator(GeneratorConfig(
        seed=SEED, papers_per_week=25,
    )).papers(start + count)
    return papers[start:]


def _served_ids(response):
    payload = response.json()
    assert response.status == 200, response.text
    return ([hit["paper_id"] for hit in payload["value"]["results"]],
            payload["value"]["total_matches"])


def _direct_ids(results):
    return ([hit.paper_id for hit in results.results],
            results.total_matches)


@pytest.fixture(scope="module")
def cluster():
    config = ClusterConfig(replicas=2, generate=BASE_PAPERS,
                           shards=SHARDS, seed=SEED, workers=2,
                           probe_interval=0.1)
    with ClusterRunner(config) as runner:
        yield runner


@pytest.fixture(scope="module")
def reference():
    system = CovidKG(CovidKGConfig(num_shards=SHARDS))
    system.ingest(_papers(BASE_PAPERS))
    return system


def _replica_clients(runner):
    with GatewayClient("127.0.0.1", runner.router_port) as router:
        records = router.get("/v1/cluster").json()["replicas"]
    return {record["replica_id"]:
            GatewayClient(record["host"], record["port"])
            for record in records}


def test_cluster_never_serves_a_pre_commit_page(cluster, reference):
    router = GatewayClient("127.0.0.1", cluster.router_port)
    replicas = _replica_clients(cluster)
    try:
        # Pre-commit: the routed answer matches the reference system.
        before = _served_ids(router.search("all_fields", query=QUERY))
        assert before == _direct_ids(reference.search(QUERY, page=1))
        # Warm the page everywhere: each replica's L1 and the shared
        # cache now hold the pre-commit result.
        for client in replicas.values():
            assert _served_ids(
                client.search("all_fields", query=QUERY)) == before
        # Commit a batch through the router (fans out to every
        # replica) and apply the same batch to the reference.
        batch = _papers(6, start=BASE_PAPERS)
        response = router.ingest(batch)
        assert response.status == 200, response.text
        assert response.headers["x-cluster-write-replicas"] == "2"
        reference.ingest(batch)
        after = _direct_ids(reference.search(QUERY, page=1))
        assert after != before, (
            "the ingested batch must change this page for the "
            "differential to mean anything")
        # Post-commit, *immediately* and repeatedly: every replica and
        # the routed path must serve the post-commit page.  A stale L1
        # entry or a shared-cache hit stamped with the old version
        # snapshot would surface here as `before`.
        for _ in range(3):
            for replica_id, client in replicas.items():
                served = _served_ids(
                    client.search("all_fields", query=QUERY))
                assert served == after, (
                    f"replica {replica_id} served a pre-commit page "
                    f"after the ingest committed")
            assert _served_ids(
                router.search("all_fields", query=QUERY)) == after
    finally:
        router.close()
        for client in replicas.values():
            client.close()


def test_replicas_share_post_commit_pages(cluster):
    """After the differential above, the shared tier still works: a
    page computed by one replica is handed to the other without
    recomputation (both sit on the same post-commit snapshot)."""
    replicas = _replica_clients(cluster)
    try:
        clients = list(replicas.values())
        fresh_query = "antibody response"
        first = clients[0].search("all_fields", query=fresh_query)
        assert first.status == 200
        assert not first.json()["cached"]
        second = clients[1].search("all_fields", query=fresh_query)
        assert second.status == 200
        assert second.json()["cached"], (
            "the second replica should have received the page from "
            "the shared cache, not recomputed it")
        assert second.json()["value"] == first.json()["value"]
        assert second.json()["versions"] == first.json()["versions"]
    finally:
        for client in replicas.values():
            client.close()


def test_healthz_reports_cluster_feed(cluster):
    """Replica healthz carries what the router and operators feed on:
    version counters, WAL replay state, admission width."""
    replicas = _replica_clients(cluster)
    try:
        payloads = {replica_id: client.healthz().json()
                    for replica_id, client in replicas.items()}
        versions = {tuple(sorted(payload["versions"].items()))
                    for payload in payloads.values()}
        assert len(versions) == 1, (
            "replicas diverged after lockstep ingest: "
            f"{payloads}")
        for payload in payloads.values():
            assert payload["ingest"]["attached"] is True
            assert payload["ingest"]["replaying"] is False
            assert payload["admission"]["pending"] >= 0
    finally:
        for client in replicas.values():
            client.close()


def test_stopping_an_idle_cluster_is_prompt():
    """Regression: ``Router.stop`` closed client sockets without
    ``shutdown``, which never wakes a thread parked in ``recv`` — each
    idle keep-alive client connection cost a 5 s thread-join timeout."""
    import time

    runner = ClusterRunner(ClusterConfig(
        replicas=2, generate=8, shards=SHARDS, seed=SEED, workers=2,
        probe_interval=0.1)).start()
    clients = [GatewayClient("127.0.0.1", runner.router_port)
               for _ in range(2)]
    try:
        for client in clients:
            assert client.search("all_fields", query=QUERY).status == 200
        # The keep-alive connections stay open and idle across stop().
        started = time.monotonic()
        runner.stop()
        elapsed = time.monotonic() - started
    finally:
        runner.stop()
        for client in clients:
            client.close()
    assert elapsed < 2.0, f"stop() took {elapsed:.1f}s"
    assert {replica_id: process.returncode
            for replica_id, process in runner.processes.items()} == \
        {"r0": 0, "r1": 0}
