"""The versioned cache's freshness protocol: hit/miss/invalidate
mechanics, the write-through fast path, and the mid-load race where a
stale value may be *stored* but never *served*."""

import threading

from repro.databases.kv import RedisLike
from repro.runtime.metrics import MetricsRegistry
from repro.views.cache import ReplicatedCache


def make_cache():
    metrics = MetricsRegistry()
    return ReplicatedCache("svc", metrics=metrics), metrics


class TestCacheAside:
    def test_miss_fills_then_hits(self):
        cache, _ = make_cache()
        calls = []
        loader = lambda: calls.append(1) or "payload"
        value, hit = cache.read("k", loader)
        assert (value, hit) == ("payload", False)
        value, hit = cache.read("k", lambda: "NEVER")
        assert (value, hit) == ("payload", True)
        assert len(calls) == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_invalidate_forces_reload(self):
        cache, _ = make_cache()
        backing = {"v": "old"}
        cache.read("k", lambda: backing["v"])
        backing["v"] = "new"
        cache.invalidate("k")
        value, hit = cache.read("k", lambda: backing["v"])
        assert (value, hit) == ("new", False)

    def test_write_through_hits_without_loader(self):
        cache, _ = make_cache()
        cache.write_through("k", {"x": 1})
        value, hit = cache.read("k", lambda: 1 / 0)  # loader must not run
        assert hit and value == {"x": 1}

    def test_write_through_supersedes_cached_entry(self):
        cache, _ = make_cache()
        cache.read("k", lambda: "stale")
        cache.write_through("k", "fresh")
        value, hit = cache.read("k", lambda: 1 / 0)
        assert hit and value == "fresh"


class TestMidLoadRace:
    def test_stale_fill_is_stored_but_never_served(self):
        """A write that lands between version capture and the engine
        load makes the fill stale; the *next* read must miss and reload
        — the INV_VIEW freshness guarantee at the unit level."""
        cache, metrics = make_cache()
        backing = {"v": "before"}

        def racing_loader():
            # Simulate the engine read overlapping an applied write:
            # the apply path invalidates while the loader is out.
            snapshot = backing["v"]
            backing["v"] = "after"
            cache.invalidate("k")
            return snapshot

        value, hit = cache.read("k", racing_loader)
        assert (value, hit) == ("before", False)
        assert metrics.value("cache.svc.stale_fills") == 1
        assert cache.kv.get("c:k") == {"ver": 1, "v": 0, "value": "before"}
        # The stored entry is below the watermark: it must NOT be served.
        value, hit = cache.read("k", lambda: backing["v"])
        assert (value, hit) == ("after", False)
        value, hit = cache.read("k", lambda: 1 / 0)
        assert hit and value == "after"

    def test_concurrent_readers_one_key(self):
        cache, _ = make_cache()
        backing = {"v": 0}
        errors = []

        def writer():
            for i in range(1, 51):
                backing["v"] = i
                cache.invalidate("k")

        def reader():
            last = -1
            for _ in range(100):
                value, _hit = cache.read("k", lambda: backing["v"])
                if value < last:  # served state went backwards
                    errors.append((last, value))
                last = value

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestOneSlotPerKey:
    """One fact — is the stored entry at the key's watermark — is one
    KV value, so answering it is one KV read."""

    @staticmethod
    def kv_ops(cache):
        return cache.kv.stats.reads, cache.kv.stats.writes

    def test_hit_is_one_read_and_write_through_one_read_one_write(self):
        cache, _ = make_cache()
        reads, writes = self.kv_ops(cache)
        cache.write_through("k", "v")
        assert self.kv_ops(cache) == (reads + 1, writes + 1)
        assert cache.read("k", lambda: 1 / 0) == ("v", True)
        assert self.kv_ops(cache) == (reads + 2, writes + 1)
        cache.invalidate("k")
        assert self.kv_ops(cache) == (reads + 3, writes + 2)

    def test_invalidate_drops_the_dead_value(self):
        cache, _ = make_cache()
        for i in range(20):
            key = ReplicatedCache.row_key("Doc", i)
            cache.write_through(key, {"id": i, "body": "x" * 100})
            assert cache.read(key, lambda: 1 / 0)[1]
            cache.invalidate(key)
        assert cache.stats()["entries"] == 0
        assert cache.kv.dbsize() == 20
        assert all(
            cache.kv.get(key) == {"ver": 2} for key in cache.kv.keys()
        )


class TestPlumbing:
    def test_key_builders(self):
        assert ReplicatedCache.row_key("Doc", 7) == "row:Doc:7"
        assert ReplicatedCache.view_key("karma") == "view:karma"

    def test_flush_drops_entries_and_watermarks(self):
        cache, _ = make_cache()
        cache.write_through("k", "v")
        cache.flush()
        assert cache.version("k") == 0
        value, hit = cache.read("k", lambda: "reloaded")
        assert (value, hit) == ("reloaded", False)

    def test_explicit_kv_engine(self):
        kv = RedisLike("shared")
        cache = ReplicatedCache("svc", kv=kv)
        cache.write_through("k", "v")
        assert kv.get("c:k") == {"ver": 1, "v": 1, "value": "v"}
