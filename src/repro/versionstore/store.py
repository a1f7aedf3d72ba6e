"""Publisher and subscriber version stores (§4.2).

Publisher side, per dependency: two counters, ``ops`` (operations that
referenced the object) and ``version`` (set to ``ops`` on writes). For
each operation the publisher, holding locks on its write dependencies,
bumps the counters and emits ``version`` for read dependencies and
``version - 1`` for write dependencies (the exact Fig 8 arithmetic).

Subscriber side, per dependency: a single ``ops`` counter. A message is
processable once every dependency's stored counter is >= the version in
the message; after processing, the counter of every (non-external)
dependency is incremented.

All counter updates run as atomic scripts on Redis-like shards behind a
consistent-hash ring: one step over one message (register, dependency
check, post-apply bump) is *one* script per shard owning any of its
keys, not a round trip per key; inside the script each key is still its
own ``hget``/``hset``, which is what engine statistics and fault plans
see. Dependency names can be hashed into a fixed space for O(1) memory —
a 1-entry space degenerates to global ordering, the ablation the paper
points out.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.databases.kv import RedisLike
from repro.runtime.interleave import observe_point, yield_point
from repro.versionstore.hashring import HashRing, stable_hash


class DependencyHasher:
    """Maps full dependency names to version-store keys.

    ``space=None`` keeps names verbatim; an integer folds them into that
    many buckets (collisions serialise unrelated objects, trading
    parallelism for memory, §4.2).
    """

    def __init__(self, space: Optional[int] = None) -> None:
        if space is not None and space < 1:
            raise ValueError("hash space must be >= 1")
        self.space = space

    def hash(self, dep: str) -> str:
        if self.space is None:
            return dep
        return f"d{stable_hash(dep) % self.space}"


class ShardedKV:
    """Routes keys across Redis-like shards via a consistent-hash ring."""

    def __init__(self, shards: List[RedisLike], vnodes: int = 64) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        self.shards = list(shards)
        self._ring = HashRing(self.shards, vnodes=vnodes)

    def shard_for(self, key: str) -> RedisLike:
        return self._ring.node_for(key)

    def hget(self, key: str, field: str) -> Any:
        return self.shard_for(key).hget(key, field)

    def hset(self, key: str, field: str, value: Any) -> None:
        self.shard_for(key).hset(key, field, value)

    def eval_on(self, key: str, script) -> Any:
        return self.shard_for(key).eval(script)

    def by_shard(self, steps: List[tuple]) -> Dict[RedisLike, List[tuple]]:
        """Group script steps (tuples led by their key) by owning shard,
        in order within a shard; shards come in the order of their
        *last* step, so the last step given runs last of all."""
        if len(self.shards) == 1:
            return {self.shards[0]: steps} if steps else {}
        groups: Dict[RedisLike, List[tuple]] = {}
        for step in steps:
            shard = self.shard_for(step[0])
            group = groups.pop(shard, [])
            group.append(step)
            groups[shard] = group
        return groups

    def entries(self, prefix: str = "") -> Dict[str, Dict[str, Any]]:
        """All hashes under ``prefix`` across every shard (bootstrap bulk
        transfer, §4.4)."""
        out: Dict[str, Dict[str, Any]] = {}
        for shard in self.shards:
            for key in shard.keys(prefix):
                out[key] = shard.hgetall(key)
        return out

    def flushall(self) -> None:
        for shard in self.shards:
            shard.flushall()

    @property
    def any_down(self) -> bool:
        return any(shard.is_down for shard in self.shards)

    def total_keys(self) -> int:
        return sum(shard.dbsize() for shard in self.shards)


class _LockTable:
    """Per-dependency locks, acquired in sorted order (deadlock-free)."""

    def __init__(self) -> None:
        self._locks: Dict[str, threading.Lock] = {}
        self._guard = threading.Lock()

    def _lock_for(self, dep: str) -> threading.Lock:
        with self._guard:
            lock = self._locks.get(dep)
            if lock is None:
                lock = threading.Lock()
                self._locks[dep] = lock
            return lock

    def acquire(self, deps: Iterable[str]) -> List[threading.Lock]:
        held = []
        for dep in sorted(set(deps)):
            lock = self._lock_for(dep)
            lock.acquire()
            held.append(lock)
        return held

    @staticmethod
    def release(held: List[threading.Lock]) -> None:
        for lock in reversed(held):
            lock.release()


class PublisherVersionStore:
    """The publisher's two-counter store plus its lock table."""

    def __init__(
        self,
        kv: ShardedKV,
        hasher: Optional[DependencyHasher] = None,
        metrics: Optional[Any] = None,
        owner: str = "",
    ) -> None:
        self.kv = kv
        self.hasher = hasher or DependencyHasher()
        self.locks = _LockTable()
        # Counter bumps mirrored into the ecosystem metrics registry.
        self._bumps = (
            metrics.counter(f"versionstore.{owner or 'publisher'}.bumps")
            if metrics is not None
            else None
        )

    @staticmethod
    def _key(hashed_dep: str) -> str:
        return f"v:{hashed_dep}"

    # -- the §4.2 publisher algorithm steps --------------------------------

    def acquire_write_locks(self, deps: Iterable[str]) -> List[threading.Lock]:
        return self.locks.acquire(self.hasher.hash(d) for d in deps)

    def release_locks(self, held: List[threading.Lock]) -> None:
        self.locks.release(held)

    def _bump(self, store: RedisLike, key: str, is_write: bool) -> int:
        """Script body for one key: increment ``ops`` (and ``version``
        for writes); return the version number to embed in the message."""
        if self._bumps is not None:
            self._bumps.increment()
        ops = (store.hget(key, "ops") or 0) + 1
        store.hset(key, "ops", ops)
        if is_write:
            store.hset(key, "version", ops)
            return ops - 1
        return store.hget(key, "version") or 0

    def register_operation(
        self, read_deps: Iterable[str], write_deps: Iterable[str]
    ) -> Dict[str, int]:
        """Bump every dependency, one script per shard; returns
        {hashed_dep: message_version}.

        Write-dep versions win when a name appears as both (hash
        collisions or explicit duplicates).
        """
        versions: Dict[str, int] = {}
        steps: List[tuple] = []
        for dep in read_deps:
            hashed = self.hasher.hash(dep)
            if hashed not in versions:
                versions[hashed] = 0  # claimed; the script fills it in
                steps.append((self._key(hashed), hashed, False))
        for dep in write_deps:
            hashed = self.hasher.hash(dep)
            steps.append((self._key(hashed), hashed, True))
        for shard, group in self.kv.by_shard(steps).items():

            def script(store: RedisLike, group: List[tuple] = group) -> None:
                for key, hashed, is_write in group:
                    versions[hashed] = self._bump(store, key, is_write)

            shard.eval(script)
        return versions

    # -- introspection / bootstrap -------------------------------------------

    def current(self, dep: str) -> Tuple[int, int]:
        key = self._key(self.hasher.hash(dep))
        return (self.kv.hget(key, "ops") or 0, self.kv.hget(key, "version") or 0)

    def snapshot(self) -> Dict[str, int]:
        """hashed_dep -> ops, the bulk payload of bootstrap step 1 (§4.4)."""
        out = {}
        for key, fields in self.kv.entries("v:").items():
            out[key[len("v:"):]] = fields.get("ops", 0)
        return out

    def watermark(self) -> int:
        """Total operations registered across every dependency — the
        publisher-side high-water mark an auditor compares against the
        subscriber's :meth:`SubscriberVersionStore.watermark`."""
        return sum(self.snapshot().values())

    def flush(self) -> None:
        self.kv.flushall()


class SubscriberVersionStore:
    """The subscriber's single-counter store."""

    def __init__(
        self, kv: ShardedKV, metrics: Optional[Any] = None, owner: str = ""
    ) -> None:
        self.kv = kv
        self._waiters = threading.Condition()
        self._applied = (
            metrics.counter(f"versionstore.{owner or 'subscriber'}.applied")
            if metrics is not None
            else None
        )

    @staticmethod
    def _key(hashed_dep: str) -> str:
        return f"s:{hashed_dep}"

    def ops(self, hashed_dep: str) -> int:
        return self.kv.hget(self._key(hashed_dep), "ops") or 0

    def snapshot(self) -> Dict[str, int]:
        """hashed_dep -> ops across every shard (audit watermarks)."""
        out: Dict[str, int] = {}
        for shard in self.kv.shards:
            for key in shard.keys("s:"):
                out[key[len("s:"):]] = shard.hget(key, "ops") or 0
        return out

    def watermark(self) -> int:
        """Total dependency increments seen by this subscriber."""
        return sum(self.snapshot().values())

    def deficits(self, publisher_snapshot: Dict[str, int]) -> Dict[str, int]:
        """Per-dependency counter deficits vs a publisher snapshot:
        only the dependencies this store is strictly behind on."""
        out: Dict[str, int] = {}
        for hashed_dep, ops in publisher_snapshot.items():
            behind = ops - self.ops(hashed_dep)
            if behind > 0:
                out[hashed_dep] = behind
        return out

    def satisfied(self, dependencies: Dict[str, int]) -> bool:
        steps = [(self._key(dep), version) for dep, version in dependencies.items()]
        for shard, group in self.kv.by_shard(steps).items():

            def script(store: RedisLike, group: List[tuple] = group) -> bool:
                return all(
                    (store.hget(key, "ops") or 0) >= version for key, version in group
                )

            if not shard.eval(script):
                return False
        return True

    def missing(self, dependencies: Dict[str, int]) -> Dict[str, Tuple[int, int]]:
        """Unsatisfied deps -> (required, current); for diagnostics."""
        out = {}
        for dep, version in dependencies.items():
            current = self.ops(dep)
            if current < version:
                out[dep] = (version, current)
        return out

    def apply(self, dependencies: Iterable[str]) -> None:
        """Post-processing increment of every (non-external) dependency."""
        self.apply_counts({dep: 1 for dep in dependencies})

    def apply_counts(
        self, counts: Dict[str, int], record_only: bool = False
    ) -> None:
        """Post-processing bump of each dependency by ``counts[dep]``;
        the last one (global mode's gate counter) is bumped last.

        Coalesced messages carry summed increments, and batched apply
        bumps per message inside the group-commit transaction —
        ``record_only=True`` downgrades the interleave events to
        observe-only because the caller holds the engine mutex there
        (a suspended scheduler step would deadlock the harness).
        """
        emit = observe_point if record_only else yield_point
        steps = [(self._key(d), d, n) for d, n in counts.items() if n > 0]
        for shard, group in self.kv.by_shard(steps).items():
            for _key, dep, amount in group:
                emit("counter.bump", dep=dep)
                if self._applied is not None:
                    self._applied.increment(amount)

            def script(store: RedisLike, group: List[tuple] = group) -> None:
                for key, dep, amount in group:
                    ops = (store.hget(key, "ops") or 0) + amount
                    store.hset(key, "ops", ops)
                    # Record-only and inside the script: reported a step
                    # later, a newer bump's report could overtake it.
                    observe_point("counter.bumped", dep=dep, value=ops)

            shard.eval(script)
        with self._waiters:
            self._waiters.notify_all()

    # Weak-mode per-object freshness -----------------------------------------

    def is_stale(self, hashed_dep: str, message_version: int) -> bool:
        """Weak delivery: a message older than the applied state is
        discarded rather than waited for (§3.2)."""
        return message_version < self.ops(hashed_dep)

    def fast_forward(self, hashed_dep: str, message_version: int) -> None:
        """Weak delivery: jump the counter past a (possibly out-of-order)
        message that was just applied."""
        key = self._key(hashed_dep)

        def script(store: RedisLike) -> int:
            ops = max(store.hget(key, "ops") or 0, message_version + 1)
            store.hset(key, "ops", ops)
            return ops

        # Record-only: callers may hold the subscriber's per-object lock.
        value = self.kv.eval_on(key, script)
        observe_point("counter.fast_forward", dep=hashed_dep, value=value)
        with self._waiters:
            self._waiters.notify_all()

    # Blocking wait used by threaded subscriber workers --------------------------

    def wait_satisfied(self, dependencies: Dict[str, int], timeout: float) -> bool:
        end = time.monotonic() + timeout
        with self._waiters:
            while not self.satisfied(dependencies):
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._waiters.wait(min(remaining, 0.05))
        return True

    # Bootstrap ---------------------------------------------------------------

    def bulk_load(self, snapshot: Dict[str, int]) -> None:
        """Bootstrap step 1: adopt the publisher's ops counters (§4.4)."""
        for hashed_dep, ops in snapshot.items():
            key = self._key(hashed_dep)

            def script(store: RedisLike, key: str = key, ops: int = ops) -> None:
                current = store.hget(key, "ops") or 0
                store.hset(key, "ops", max(current, ops))

            self.kv.eval_on(key, script)
        with self._waiters:
            self._waiters.notify_all()

    def flush(self) -> None:
        yield_point("store.flush")
        self.kv.flushall()
        with self._waiters:
            self._waiters.notify_all()
