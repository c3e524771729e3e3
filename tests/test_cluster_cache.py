"""The shared cross-process result cache: protocol, server, client, L2.

Everything runs against real sockets on ephemeral ports (the protocol
is exercised on the wire, not through mocks); the L2 integration tests
run two independent :class:`QueryService` instances — two "replicas" —
against one cache server and assert a page computed by one is served
by the other without recomputation, and never across an ingest commit.
"""

from __future__ import annotations

import pickle
import socket
import threading

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.cluster import protocol as wire
from repro.cluster.cacheclient import SharedCacheClient, parse_address
from repro.cluster.cacheserver import SharedCacheServer
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import GatewayError
from repro.serve.service import QueryService, ServeConfig


def _corpus(seed, count, start=0):
    papers = CorpusGenerator(GeneratorConfig(
        seed=seed, papers_per_week=15, tables_per_paper=(1, 2),
    )).papers(start + count)
    return papers[start:]


def _page_ids(results):
    return [(hit.paper_id, hit.score) for hit in results]


# -- wire protocol ---------------------------------------------------------

class TestProtocol:
    def test_frame_roundtrip(self):
        body = wire.pack_frame(wire.OP_PUT, b"engine", b"key", b"value")
        op, fields = wire.unpack_frame(body[4:])
        assert op == wire.OP_PUT
        assert fields == [b"engine", b"key", b"value"]

    def test_empty_fields_roundtrip(self):
        body = wire.pack_frame(wire.OP_MISS)
        op, fields = wire.unpack_frame(body[4:])
        assert op == wire.OP_MISS and fields == []

    def test_versions_roundtrip(self):
        for versions in ((), (0,), (1, 2, 3), (2**40, -1)):
            packed = wire.pack_versions(versions)
            assert wire.unpack_versions(packed) == versions

    def test_truncated_frame_rejected(self):
        body = wire.pack_frame(wire.OP_GET, b"engine", b"key")
        with pytest.raises(wire.ProtocolError):
            wire.unpack_frame(body[4:-1])

    def test_garbage_rejected(self):
        with pytest.raises(wire.ProtocolError):
            wire.unpack_frame(b"")

    def test_server_rejects_oversized_frame_header(self):
        with SharedCacheServer() as server:
            with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall((wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
                reply = sock.recv(4096)
        # The server answered with an error frame and closed.
        assert reply == b"" or wire.OP_ERROR.to_bytes(1, "big") in reply


# -- server operations -----------------------------------------------------

class TestCacheServer:
    def test_get_put_version_equality(self):
        with SharedCacheServer() as server, \
                SharedCacheClient(server.address) as client:
            versions = (3, 7)
            assert client.get("all_fields", ("q",), versions) == \
                (False, None)
            assert client.put("all_fields", ("q",), versions, [1, 2])
            assert client.get("all_fields", ("q",), versions) == \
                (True, [1, 2])
            # A reader still on the old snapshot misses but must not
            # destroy the entry the caught-up replicas are using.
            assert client.get("all_fields", ("q",), (2, 7)) == \
                (False, None)
            assert client.get("all_fields", ("q",), versions)[0]
            # A reader from the future proves the entry stale for all.
            assert client.get("all_fields", ("q",), (4, 7)) == \
                (False, None)
            assert client.get("all_fields", ("q",), versions) == \
                (False, None)

    def test_invalidate_purges_only_stale_entries_of_engine(self):
        with SharedCacheServer() as server, \
                SharedCacheClient(server.address) as client:
            client.put("kg", ("a",), (1,), "old")
            client.put("kg", ("b",), (2,), "new")
            client.put("table", ("c",), (1,), "other-engine")
            assert client.invalidate("kg", (2,)) == 1
            assert client.get("kg", ("b",), (2,)) == (True, "new")
            assert client.get("table", ("c",), (1,)) == \
                (True, "other-engine")

    def test_lru_eviction(self):
        with SharedCacheServer(max_entries=2) as server, \
                SharedCacheClient(server.address) as client:
            client.put("kg", ("a",), (1,), "a")
            client.put("kg", ("b",), (1,), "b")
            client.get("kg", ("a",), (1,))  # refresh a
            client.put("kg", ("c",), (1,), "c")  # evicts b
            assert client.get("kg", ("a",), (1,))[0]
            assert not client.get("kg", ("b",), (1,))[0]
            assert client.get("kg", ("c",), (1,))[0]

    def test_ttl_expiry(self):
        clock = [0.0]
        server = SharedCacheServer(ttl_seconds=10.0,
                                   clock=lambda: clock[0]).start()
        try:
            with SharedCacheClient(server.address) as client:
                client.put("kg", ("a",), (1,), "a")
                assert client.get("kg", ("a",), (1,))[0]
                clock[0] = 11.0
                assert not client.get("kg", ("a",), (1,))[0]
                assert server.stats_snapshot()["expirations"] == 1
        finally:
            server.stop()

    @pytest.mark.parametrize("op", [0x01, 0x05, 0x06, 0x07, 0x08])
    def test_retired_opcodes_answer_error(self, op):
        """PING, REGISTER, DEREGISTER, LIST and STATS are gone: the
        server answers each with ``ERROR`` and keeps the connection."""
        with SharedCacheServer() as server, socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0) as sock:
            wire.write_frame(sock, op, b"{}")
            reply, fields = wire.read_frame(sock)
            assert reply == wire.OP_ERROR
            assert fields == [f"unknown opcode 0x{op:02x}".encode()]
            wire.write_frame(sock, wire.OP_GET, b"kg", b"k",
                             wire.pack_versions((1,)))
            assert wire.read_frame(sock) == (wire.OP_MISS, [])
            assert server.stats_snapshot()["errors"] == 1

    def test_concurrent_clients(self):
        with SharedCacheServer() as server:
            errors = []

            def hammer(worker):
                try:
                    with SharedCacheClient(server.address) as client:
                        for i in range(50):
                            key = (f"w{worker}", i % 5)
                            client.put("kg", key, (1,), [worker, i])
                            hit, value = client.get("kg", key, (1,))
                            assert hit and value[0] == worker
                except Exception as exc:  # pragma: no cover - fail path
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(w,))
                       for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors


# -- client degradation ----------------------------------------------------

class TestCacheClientDegradation:
    def test_bad_address_rejected(self):
        with pytest.raises(GatewayError):
            parse_address("nonsense")
        with pytest.raises(GatewayError):
            parse_address("host:notaport")
        assert parse_address("10.0.0.1:8200") == ("10.0.0.1", 8200)

    def test_dead_server_degrades_to_miss(self):
        # Grab a port that nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = SharedCacheClient(f"127.0.0.1:{port}", timeout=0.5)
        assert client.get("kg", ("a",), (1,)) == (False, None)
        assert client.put("kg", ("a",), (1,), "x") is False
        assert client.invalidate("kg", (1,)) == 0
        stats = client.stats_snapshot()
        assert stats["errors"] >= 1

    def test_breaker_skips_io_then_recovers(self):
        clock = [0.0]
        with SharedCacheServer() as server:
            client = SharedCacheClient(server.address, timeout=0.5,
                                       breaker_seconds=5.0,
                                       clock=lambda: clock[0])
            client.put("kg", ("a",), (1,), "x")
            client._trip_breaker()
            # Breaker open: no socket traffic, straight misses.
            assert client.get("kg", ("a",), (1,)) == (False, None)
            assert client.stats_snapshot()["breaker_skips"] == 1
            clock[0] = 6.0  # window lapsed: traffic resumes
            assert client.get("kg", ("a",), (1,)) == (True, "x")
            client.close()

    def test_server_restart_is_one_retry_not_an_error(self):
        server = SharedCacheServer().start()
        address, port = server.address, server.port
        client = SharedCacheClient(address, timeout=1.0)
        client.put("kg", ("a",), (1,), "x")
        server.stop()
        server2 = SharedCacheServer(port=port).start()
        try:
            # The persistent socket died with the old server; the call
            # must transparently retry on a fresh connection.
            assert client.put("kg", ("a",), (1,), "y")
            assert client.get("kg", ("a",), (1,)) == (True, "y")
            assert client.stats_snapshot()["errors"] == 0
        finally:
            client.close()
            server2.stop()

    def test_oversized_value_skipped_without_io(self):
        with SharedCacheServer() as server, \
                SharedCacheClient(server.address) as client:
            blob = b"x" * (wire.MAX_FRAME_BYTES + 1)
            assert client.put("kg", ("big",), (1,), blob) is False
            assert not client.get("kg", ("big",), (1,))[0]

    def test_oversized_key_degrades_without_dropping_connection(self):
        """A huge repr'd key must not nuke the healthy connection.

        An oversized frame is a deterministic client-side condition:
        the call degrades to a miss/no-op, but the persistent socket
        stays up and the breaker stays closed for everyone else.
        """
        with SharedCacheServer() as server, \
                SharedCacheClient(server.address) as client:
            client.put("kg", ("a",), (1,), "x")
            connects = client.stats_snapshot()["connects"]
            big_key = ("k" * wire.MAX_FRAME_BYTES,)
            assert client.put("kg", big_key, (1,), "v") is False
            assert client.get("kg", big_key, (1,)) == (False, None)
            # The healthy entry still answers on the same connection,
            # immediately — no reconnect, no breaker window.
            assert client.get("kg", ("a",), (1,)) == (True, "x")
            stats = client.stats_snapshot()
            assert stats["connects"] == connects
            assert stats["breaker_skips"] == 0

    def test_unpicklable_value_counts_as_error(self):
        with SharedCacheServer() as server, \
                SharedCacheClient(server.address) as client:
            assert client.put("kg", ("t",), (1,), threading.Lock()) \
                is False
            assert client.stats_snapshot()["errors"] == 1

    def test_corrupt_cached_blob_degrades_to_miss(self):
        with SharedCacheServer() as server, \
                SharedCacheClient(server.address) as client:
            # Another (buggy) writer stored bytes that do not unpickle.
            with server._lock:
                server._entries[(b"kg", repr(("bad",)).encode())] = \
                    ((1,), b"not a pickle", float("inf"))
            assert client.get("kg", ("bad",), (1,)) == (False, None)

    def test_value_roundtrip_preserves_rich_objects(self):
        with SharedCacheServer() as server, \
                SharedCacheClient(server.address) as client:
            value = {"nested": [(1, "a"), (2, "b")], "flag": True}
            client.put("kg", ("rich",), (1,), value)
            assert client.get("kg", ("rich",), (1,)) == (True, value)
            # and it really crossed the wire pickled
            blob = pickle.dumps(value,
                                protocol=pickle.HIGHEST_PROTOCOL)
            assert len(blob) > 0


# -- the serve tier's L2 ---------------------------------------------------

@pytest.fixture(scope="module")
def cache_server():
    with SharedCacheServer() as server:
        yield server


def _replica(cache_server, seed=31, count=24):
    """One 'replica': an independent system + service sharing the L2."""
    system = CovidKG(CovidKGConfig(num_shards=2))
    system.ingest(_corpus(seed, count))
    return QueryService(system, ServeConfig(
        num_workers=2, shared_cache=cache_server.address))


class TestServiceSharedL2:
    def test_page_computed_once_served_everywhere(self, cache_server):
        replica_a = _replica(cache_server)
        replica_b = _replica(cache_server)
        try:
            first = replica_a.query("all_fields", query="vaccine")
            assert not first.cached and not first.shared
            # Replica B never computed this page; it must arrive from
            # the shared cache, not from B's own L1.
            second = replica_b.query("all_fields", query="vaccine")
            assert second.cached and second.shared
            assert _page_ids(second.value) == _page_ids(first.value)
            # ... and B's L1 now holds it: the third read is local.
            third = replica_b.query("all_fields", query="vaccine")
            assert third.cached and not third.shared
        finally:
            replica_a.close()
            replica_b.close()

    def test_ingest_commit_blocks_stale_shared_pages(self, cache_server):
        replica_a = _replica(cache_server, seed=77)
        replica_b = _replica(cache_server, seed=77)
        try:
            replica_a.query("all_fields", query="antibody")
            # A commits a batch; its version counters move and it
            # broadcasts the new snapshot.
            replica_a.ingest(_corpus(77, 4, start=24))
            fresh_a = replica_a.query("all_fields", query="antibody")
            assert not fresh_a.shared  # recomputed post-commit
            # B is still on the old corpus: it must not be handed A's
            # post-commit page (version snapshots differ), nor may A be
            # handed B's pre-commit one.
            result_b = replica_b.query("all_fields", query="antibody")
            assert not result_b.shared
            assert result_b.versions != fresh_a.versions
            # Once B applies the same batch, the snapshots converge and
            # sharing resumes.
            replica_b.ingest(_corpus(77, 4, start=24))
            caught_up = replica_b.query("all_fields", query="antibody")
            assert caught_up.versions == fresh_a.versions
        finally:
            replica_a.close()
            replica_b.close()

    def test_service_stats_report_shared_tier(self, cache_server):
        service = _replica(cache_server, seed=5, count=12)
        try:
            service.query("all_fields", query="protein")
            shared = service.stats()["cache"]["shared"]
            assert shared["puts"] >= 1
        finally:
            service.close()

    def test_service_without_shared_cache_reports_disabled(self):
        system = CovidKG(CovidKGConfig(num_shards=1))
        system.ingest(_corpus(9, 8))
        with QueryService(system, ServeConfig(num_workers=1)) as service:
            assert service.stats()["cache"]["shared"] == \
                {"enabled": False}
            assert service.shared_cache is None

    def test_degraded_cache_never_fails_a_query(self):
        # Shared cache address points at nothing: every query must
        # still answer, just without the L2.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        system = CovidKG(CovidKGConfig(num_shards=1))
        system.ingest(_corpus(9, 8))
        with QueryService(system, ServeConfig(
                num_workers=1, shared_cache=f"127.0.0.1:{port}",
                shared_cache_timeout=0.3)) as service:
            result = service.query("all_fields", query="protein")
            assert result.value is not None
            assert not result.shared
