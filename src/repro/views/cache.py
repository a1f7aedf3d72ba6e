"""The replication-driven cache tier: cache-aside reads with
write-through from the apply path, over the KV engine.

Freshness is a per-key **version watermark**, not a TTL. Every key has
one KV value, its *slot* — ``c:<key>`` → ``{"ver": watermark}`` plus,
when an entry is stored, ``"v"`` (the watermark the entry was filled
at) and ``"value"`` — so "is the stored entry at the key's watermark"
is one KV read. The apply path bumps ``ver`` and drops the entry
(invalidate) or bumps it and installs the new value at it
(write-through) *while the write lands*, so the watermark tracks the
causal frontier the subscriber has applied. Every write replaces the
slot with a new dict; none mutates one a reader may hold. A cache-aside
read:

1. captures the key's current version ``v`` *before* touching the
   backing engine,
2. serves the cached entry only if its version equals ``v`` (an entry
   filled before the latest invalidation can never be served),
3. on miss, loads from the engine and stores ``(value, v)`` — if a
   write raced in between, the current version has moved past ``v``
   and the freshly stored entry is already stale, so the next read
   reloads. A stale value can be *stored*, never *served*.

The slot layout is internal: it is never snapshotted, and a restore
flushes the cache.

The interleave events (``cache.read`` / ``cache.invalidate``) are
record-only observe points emitted inside the cache's atomic KV script,
so the checker's event order equals version order — that is what lets
``INV_VIEW`` assert "no cached read is older than an applied write"
deterministically.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.databases.kv import RedisLike
from repro.runtime.interleave import observe_point
from repro.runtime.metrics import MetricsRegistry

#: What a key never written reads as: watermark 0, nothing stored.
_UNWRITTEN = {"ver": 0}


class ReplicatedCache:
    """Versioned cache over a Redis-like KV engine for one service."""

    def __init__(
        self, owner: str, kv: Optional[RedisLike] = None, metrics=None
    ) -> None:
        self.owner = owner
        self.kv = kv if kv is not None else RedisLike(f"{owner}-cache")
        if metrics is None:  # bare construction: counters nobody exports
            metrics = MetricsRegistry()
        self.hits = metrics.counter(f"cache.{owner}.hits")
        self.misses = metrics.counter(f"cache.{owner}.misses")
        self.stale_fills = metrics.counter(f"cache.{owner}.stale_fills")
        self.invalidations = metrics.counter(f"cache.{owner}.invalidations")
        self.write_throughs = metrics.counter(f"cache.{owner}.write_throughs")

    @staticmethod
    def row_key(model: str, row_id: Any) -> str:
        return f"row:{model}:{row_id}"

    @staticmethod
    def view_key(name: str) -> str:
        return f"view:{name}"

    # -- read side (cache-aside) -------------------------------------------

    def read(self, key: str, loader: Callable[[], Any]) -> Tuple[Any, bool]:
        """Serve ``key`` from cache, or load-and-fill via ``loader``.
        Returns ``(value, hit)``."""
        slot_key = f"c:{key}"

        def lookup(store: RedisLike):
            slot = store.get(slot_key) or _UNWRITTEN
            version = slot["ver"]
            if slot.get("v") == version:
                observe_point(
                    "cache.read", key=key, version=version, hit=True
                )
                return version, slot["value"], True
            return version, None, False

        version, value, hit = self.kv.eval(lookup)
        if hit:
            self.hits.increment()
            return value, True
        self.misses.increment()
        # The engine read happens outside the cache lock (it has its own
        # engine lock and may be arbitrarily slow); ``version`` was
        # captured before it, so a write that lands mid-load moves the
        # watermark past this fill and the entry is born stale.
        value = loader()

        def fill(store: RedisLike):
            current = (store.get(slot_key) or _UNWRITTEN)["ver"]
            store.set(slot_key, {"ver": current, "v": version, "value": value})
            observe_point(
                "cache.read", key=key, version=version, hit=False
            )
            return current

        if self.kv.eval(fill) != version:
            self.stale_fills.increment()
        return value, False

    # -- write side (rides the apply path) ---------------------------------

    def invalidate(self, key: str) -> int:
        """Advance the key's watermark and drop whatever entry the slot
        held — it is unservable from here on, and the key may be a
        deleted row that is never filled again. Returns the new
        version."""
        slot_key = f"c:{key}"

        def bump(store: RedisLike):
            version = (store.get(slot_key) or _UNWRITTEN)["ver"] + 1
            store.set(slot_key, {"ver": version})
            observe_point("cache.invalidate", key=key, version=version)
            return version

        version = self.kv.eval(bump)
        self.invalidations.increment()
        return version

    def write_through(self, key: str, value: Any) -> int:
        """Advance the watermark *and* install the new value at it in
        one atomic step — the next read hits without touching the
        engine, and can never observe the pre-write value."""
        slot_key = f"c:{key}"

        def bump_and_store(store: RedisLike):
            version = (store.get(slot_key) or _UNWRITTEN)["ver"] + 1
            store.set(slot_key, {"ver": version, "v": version, "value": value})
            observe_point("cache.invalidate", key=key, version=version)
            return version

        version = self.kv.eval(bump_and_store)
        self.write_throughs.increment()
        return version

    def flush(self) -> None:
        """Drop every entry *and* watermark (rebuild/bootstrap): an
        empty cache serves nothing, so resetting versions is safe."""
        self.kv.flushall()

    def stats(self) -> dict:
        return {
            "hits": self.hits.value,
            "misses": self.misses.value,
            "invalidations": self.invalidations.value,
            "write_throughs": self.write_throughs.value,
            "entries": self.kv.eval(lambda store: sum(
                "value" in store.get(key) for key in store.keys("c:")
            )),
        }
