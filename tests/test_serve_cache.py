"""Unit tests for the serving tier's result cache."""

import pytest

from repro.serve.cache import (
    ResultCache,
    canonical_params,
    canonical_text,
    request_key,
)


class TestCanonicalization:
    def test_whitespace_and_case_fold(self):
        assert canonical_text("  Vaccine   SIDE\teffects ") == \
            "vaccine side effects"

    def test_params_sorted_and_none_dropped(self):
        a = canonical_params({"title": "Covid ", "abstract": None})
        b = canonical_params({"abstract": None, "title": "covid"})
        c = canonical_params({"title": "covid"})
        assert a == b == c

    def test_request_key_distinguishes_engines_and_pages(self):
        base = request_key("all_fields", {"query": "covid", "page": 1})
        assert request_key("table", {"query": "covid", "page": 1}) != base
        assert request_key("all_fields",
                           {"query": "covid", "page": 2}) != base

    def test_non_string_params_pass_through(self):
        key = request_key("kg", {"query": "covid", "top_k": 5})
        assert ("top_k", 5) in key[1]


def _status(cache, key, versions):
    return cache.claim(key, versions)[0]


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        key = request_key("all_fields", {"query": "covid", "page": 1})
        status, flight, _ = cache.claim(key, (1,))
        assert status == "leader"
        cache.complete(flight, (1,), "page-one")
        assert cache.claim(key, (1,)) == ("hit", "page-one", None)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_version_mismatch_invalidates(self):
        cache = ResultCache()
        key = request_key("all_fields", {"query": "covid", "page": 1})
        cache.put(key, (1,), "stale")
        assert _status(cache, key, (2,)) == "leader"
        assert cache.stats.invalidations == 1
        # The stale entry is evicted, not resurrected at the old version.
        assert key not in cache

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put(("e", ("a",)), (0,), 1)
        cache.put(("e", ("b",)), (0,), 2)
        _status(cache, ("e", ("a",)), (0,))  # touch "a": "b" becomes LRU
        cache.put(("e", ("c",)), (0,), 3)
        assert ("e", ("a",)) in cache
        assert ("e", ("b",)) not in cache
        assert ("e", ("c",)) in cache
        assert cache.stats.evictions == 1

    def test_ttl_expiry(self):
        clock = [0.0]
        cache = ResultCache(ttl_seconds=10.0, clock=lambda: clock[0])
        cache.put(("e", ("q",)), (0,), "fresh")
        clock[0] = 9.9
        assert _status(cache, ("e", ("q",)), (0,)) == "hit"
        clock[0] = 10.1
        assert _status(cache, ("e", ("q",)), (0,)) == "leader"
        assert cache.stats.expirations == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_clear(self):
        cache = ResultCache()
        cache.put(("e", ("q",)), (0,), 1)
        cache.clear()
        assert len(cache) == 0


class TestNegativeInvalidation:
    """``claim`` drops a negative the moment versions move.

    Regression suite for the staleness sweep: a fixed document must
    never keep replaying a cached error.  ``claim`` is the one lookup
    path and so the one invalidation point.
    """

    def _negative(self, cache, key, versions):
        status, flight, _ = cache.claim(key, versions)
        assert status == "leader"
        cache.fail(flight, ValueError("bad query"), negative=True,
                   versions=versions)
        return flight

    def test_claim_replays_fresh_negative(self):
        cache = ResultCache()
        key = request_key("kg_query", {"query": "MATCH ("})
        self._negative(cache, key, (1,))
        status, exc, _ = cache.claim(key, (1,))
        assert status == "negative"
        assert isinstance(exc, ValueError)

    def test_version_bump_unnegatives_claim_path(self):
        cache = ResultCache()
        key = request_key("kg_query", {"query": "MATCH ("})
        self._negative(cache, key, (1,))
        # The document was fixed: the ingest bumped the counters, so
        # the next claim must recompute, not replay the stale failure.
        assert _status(cache, key, (2,)) == "leader"
        # And the stale entry is gone even for the old snapshot.
        assert _status(cache, key, (1,)) == "leader"

    def test_successful_put_supersedes_negative(self):
        cache = ResultCache()
        key = request_key("all_fields", {"query": "covid"})
        self._negative(cache, key, (1,))
        cache.put(key, (1,), "recovered")
        assert cache.claim(key, (1,)) == ("hit", "recovered", None)

    def test_negative_stamped_with_execution_time_versions(self):
        cache = ResultCache()
        key = request_key("kg_query", {"query": "MATCH ("})
        status, flight, _ = cache.claim(key, (1,))
        assert status == "leader"
        # An ingest landed between claim and execution; the failure was
        # observed at (2,).  Stamping it with the stale claim-time
        # snapshot would make it dead on arrival.
        cache.fail(flight, ValueError("still bad"), negative=True,
                   versions=(2,))
        assert _status(cache, key, (2,)) == "negative"
        assert _status(cache, key, (1,)) == "leader"

    def test_negative_expires_by_ttl(self):
        now = [0.0]
        cache = ResultCache(negative_ttl_seconds=5.0,
                            clock=lambda: now[0])
        key = request_key("kg_query", {"query": "MATCH ("})
        self._negative(cache, key, (1,))
        now[0] = 6.0
        assert _status(cache, key, (1,)) == "leader"


def _wire_slots(cache):
    return sum(entry.wire is not None
               for entry in cache._entries.values())


class TestAttachedWire:
    """An entry's encoded page: attached after a hit, gone with the entry."""

    KEY = request_key("all_fields", {"query": "covid", "page": 1})

    def _hit_entry(self, cache, key=KEY, value=None, versions=(1,)):
        value = value if value is not None else {"page": key}
        cache.put(key, versions, value)
        assert cache.claim(key, versions) == ("hit", value, None)
        cache.attach_wire(key, value, b"{}")
        return value

    def test_later_hits_carry_the_attached_bytes(self):
        cache = ResultCache()
        value = self._hit_entry(cache)
        assert cache.claim(self.KEY, (1,)) == ("hit", value, b"{}")
        assert _wire_slots(cache) == 1

    def test_an_entry_that_is_never_hit_holds_no_bytes(self):
        cache = ResultCache()
        cache.put(self.KEY, (1,), "page")
        assert _wire_slots(cache) == 0

    def test_bytes_never_attach_to_another_value(self):
        cache = ResultCache()
        stale = ["old page"]
        cache.put(self.KEY, (1,), stale)
        cache.put(self.KEY, (2,), ["new page"])  # replaced since the hit
        cache.attach_wire(self.KEY, stale, b'["old page"]')
        cache.attach_wire(("all_fields", ("gone",)), stale, b"x")
        assert _wire_slots(cache) == 0

    def test_put_replacement_drops_the_bytes(self):
        cache = ResultCache()
        self._hit_entry(cache)
        cache.put(self.KEY, (1,), "recomputed")
        assert _wire_slots(cache) == 0
        assert cache.claim(self.KEY, (1,)) == ("hit", "recomputed", None)

    def test_version_invalidation_drops_the_bytes(self):
        cache = ResultCache()
        self._hit_entry(cache)
        status, _, wire = cache.claim(self.KEY, (2,))
        assert (status, wire) == ("leader", None)
        assert _wire_slots(cache) == 0 and self.KEY not in cache

    def test_ttl_expiry_drops_the_bytes(self):
        clock = [0.0]
        cache = ResultCache(ttl_seconds=10.0, clock=lambda: clock[0])
        self._hit_entry(cache)
        clock[0] = 10.1
        assert _status(cache, self.KEY, (1,)) == "leader"
        assert _wire_slots(cache) == 0 and self.KEY not in cache

    def test_lru_eviction_drops_the_bytes(self):
        cache = ResultCache(max_entries=2)
        first, second, third = (("e", (name,)) for name in "abc")
        self._hit_entry(cache, first)
        self._hit_entry(cache, second)
        assert _wire_slots(cache) == 2
        cache.put(third, (1,), "c")  # evicts the least recently used
        assert first not in cache
        assert _wire_slots(cache) == 1
        assert cache.claim(second, (1,))[2] == b"{}"
