"""Publisher and subscriber version stores (§4.2).

Publisher side, per dependency: two counters, ``ops`` (operations that
referenced the object) and ``version`` (set to ``ops`` on writes). For
each operation the publisher, holding locks on its write dependencies,
bumps the counters and emits ``version`` for read dependencies and
``version - 1`` for write dependencies (the exact Fig 8 arithmetic).

Subscriber side, per dependency: a single ``ops`` counter. A message is
processable once every dependency's stored counter is >= the version in
the message; after processing, the counter of every (non-external)
dependency is incremented. The same counters say whether a message was
applied already: every object it writes has a counter *past* the
version it carries (the dependency check's DONE verdict; ``is_stale``
per object).

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
import zlib
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

    def total_keys(self) -> int:
        return sum(shard.dbsize() for shard in self.shards)


#: Locks in one :class:`StripedLocks` table, whatever the key count.
LOCK_STRIPES = 256


class StripedLocks:
    """A fixed table of locks; a key takes the stripe its CRC picks, so
    the table never grows with the keys ever locked and two keys sharing
    a stripe merely serialise. A multi-key acquire takes the distinct
    stripes in index order (deadlock-free)."""

    def __init__(self) -> None:
        self._stripes = tuple(threading.Lock() for _ in range(LOCK_STRIPES))

    def __len__(self) -> int:
        return len(self._stripes)

    def lock_for(self, key: str) -> threading.Lock:
        return self._stripes[zlib.crc32(key.encode()) % LOCK_STRIPES]

    def acquire(self, keys: Iterable[str]) -> List[threading.Lock]:
        stripes = sorted({zlib.crc32(key.encode()) % LOCK_STRIPES for key in keys})
        held = [self._stripes[index] for index in stripes]
        for lock in held:
            lock.acquire()
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
        self.locks = StripedLocks()
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

    def register_operation(
        self, read_deps: Iterable[str], write_deps: Iterable[str]
    ) -> Tuple[Dict[str, int], Dict[str, List[int]]]:
        """Bump every dependency, one script per shard: increment
        ``ops`` (and set ``version`` to it for a write). Returns
        ``(versions, counters)``: {hashed_dep: message_version} — a
        write dep's ``ops - 1``, a read dep's ``version`` — and
        {hashed_dep: post-bump ``[ops, version]``}, the state this very
        bump left, read inside the script (what the publish's ``out``
        record carries).

        Write-dep versions win when a name appears as both (hash
        collisions or explicit duplicates).
        """
        versions: Dict[str, int] = {}
        counters: Dict[str, List[int]] = {}
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
                    ops = (store.hget(key, "ops") or 0) + 1
                    store.hset(key, "ops", ops)
                    if is_write:
                        store.hset(key, "version", ops)
                        versions[hashed] = ops - 1
                        counters[hashed] = [ops, ops]
                    else:
                        version = versions[hashed] = store.hget(key, "version") or 0
                        counters[hashed] = [ops, version]

            shard.eval(script)
            if self._bumps is not None:
                self._bumps.increment(len(group))
        return versions, counters

    # -- introspection / bootstrap -------------------------------------------

    def current(self, dep: str) -> Tuple[int, int]:
        key = self._key(self.hasher.hash(dep))
        return (self.kv.hget(key, "ops") or 0, self.kv.hget(key, "version") or 0)

    def snapshot(self, hashed_deps: Optional[Iterable[str]] = None) -> Dict[str, int]:
        """hashed_dep -> ops of every key, or of ``hashed_deps`` (an
        absent key reads 0): the payload of bootstrap step 1 (§4.4)."""
        if hashed_deps is None:
            return {dep: ops for dep, (ops, _version) in self.durable_state().items()}
        return {dep: self.kv.hget(self._key(dep), "ops") or 0 for dep in hashed_deps}

    # -- durability (docs/durability.md, "Restore") ---------------------------

    def durable_state(self) -> Dict[str, List[int]]:
        """hashed_dep -> ``[ops, version]`` of every key (a snapshot's)."""
        return {
            key[len("v:"):]: [fields.get("ops", 0), fields.get("version", 0)]
            for key, fields in self.kv.entries("v:").items()
        }

    def restore_counters(self, counters: Dict[str, List[int]]) -> None:
        """Adopt ``[ops, version]`` pairs — a snapshot's or an ``out``
        record's — set-to-max per counter, one script per shard: a
        replayed tail revisits keys the snapshot already covered."""
        steps = [
            (self._key(hashed), ops, version)
            for hashed, (ops, version) in counters.items()
        ]
        for shard, group in self.kv.by_shard(steps).items():

            def script(store: RedisLike, group: List[tuple] = group) -> None:
                for key, ops, version in group:
                    store.hset(key, "ops", max(store.hget(key, "ops") or 0, ops))
                    store.hset(
                        key, "version", max(store.hget(key, "version") or 0, version)
                    )

            shard.eval(script)

    def flush(self) -> None:
        self.kv.flushall()


#: :meth:`SubscriberVersionStore.satisfied`'s verdicts; WAITING is falsy.
WAITING, READY, DONE = 0, 1, 2


class SubscriberVersionStore:
    """The subscriber's single-counter store."""

    def __init__(
        self, kv: ShardedKV, metrics: Optional[Any] = None, owner: str = ""
    ) -> None:
        self.kv = kv
        self._waiters = threading.Condition()
        #: Threads inside :meth:`wait_satisfied`. A counter move reads
        #: it without the lock: a waiter counts itself in *before* its
        #: next check, so a move that read 0 is one that check sees.
        self._waiting = 0
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

    def deficits(self, publisher_snapshot: Dict[str, int]) -> Dict[str, int]:
        """Per-dependency counter deficits vs a publisher snapshot:
        only the dependencies this store is strictly behind on."""
        out: Dict[str, int] = {}
        for hashed_dep, ops in publisher_snapshot.items():
            behind = ops - self.ops(hashed_dep)
            if behind > 0:
                out[hashed_dep] = behind
        return out

    def satisfied(
        self,
        dependencies: Dict[str, int],
        written: Optional[Dict[str, int]] = None,
    ) -> int:
        """The §4.2 check of one message, one script per shard:
        :data:`WAITING` (falsy) while a ``dependencies`` counter is below
        its version, else :data:`DONE` when every ``written`` object's
        counter is already *past* the version the message carries for
        it — the message has been applied — else :data:`READY`. DONE
        is exact for an ordered message: it was admitted with each
        written counter *equal* to its carried version, its apply moved
        them past, and every later reference to those objects waits for
        that apply (docs/delivery_semantics.md)."""
        written = written or {}
        steps = [
            (self._key(dep), dependencies.get(dep), written.get(dep))
            for dep in {**dependencies, **written}
        ]
        applied = bool(written)
        for shard, group in self.kv.by_shard(steps).items():

            def script(store: RedisLike, group: List[tuple] = group) -> Optional[bool]:
                past = True
                for key, needed, carried in group:
                    ops = store.hget(key, "ops") or 0
                    if needed is not None and ops < needed:
                        return None
                    if carried is not None and ops <= carried:
                        past = False
                return past

            past = shard.eval(script)
            if past is None:
                return WAITING
            applied = applied and past
        return DONE if applied else READY

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

    def apply_counts(self, counts: Dict[str, int]) -> None:
        """Post-processing bump of each dependency by ``counts[dep]``;
        the last one (global mode's gate counter) is bumped last.
        Coalesced messages carry summed increments."""
        steps = [(self._key(d), d, n) for d, n in counts.items() if n > 0]
        if self._applied is not None and steps:
            self._applied.increment(sum([step[2] for step in steps]))
        for shard, group in self.kv.by_shard(steps).items():
            for _key, dep, _amount in group:
                yield_point("counter.bump", dep=dep)

            def script(store: RedisLike, group: List[tuple] = group) -> None:
                for key, dep, amount in group:
                    ops = (store.hget(key, "ops") or 0) + amount
                    store.hset(key, "ops", ops)
                    # Record-only and inside the script: reported a step
                    # later, a newer bump's report could overtake it.
                    observe_point("counter.bumped", dep=dep, value=ops)

            shard.eval(script)
        self._wake()

    # Weak-mode per-object freshness -----------------------------------------

    def is_stale(self, hashed_dep: str, message_version: int) -> bool:
        """Weak delivery: a message older than the applied state is
        discarded rather than waited for (§3.2). The counter-past-version
        rule :meth:`satisfied` calls DONE, for one object."""
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
        self._wake()

    # Blocking wait used by threaded subscriber workers --------------------------

    def wait_satisfied(self, dependencies: Dict[str, int], timeout: float) -> bool:
        end = time.monotonic() + timeout
        with self._waiters:
            self._waiting += 1
            try:
                while not self.satisfied(dependencies):
                    remaining = end - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._waiters.wait(min(remaining, 0.05))
            finally:
                self._waiting -= 1
        return True

    def _wake(self) -> None:
        """Wake the dependency waiters after a counter moved."""
        if self._waiting:
            with self._waiters:
                self._waiters.notify_all()

    # Bootstrap ---------------------------------------------------------------

    def bulk_load(self, snapshot: Dict[str, int]) -> None:
        """Bootstrap step 1: adopt the publisher's ops counters (§4.4)."""
        for hashed_dep, ops in snapshot.items():
            key = self._key(hashed_dep)

            def script(store: RedisLike, key: str = key, ops: int = ops) -> None:
                current = store.hget(key, "ops") or 0
                store.hset(key, "ops", max(current, ops))

            self.kv.eval_on(key, script)
            # Record-only: a bootstrap loads under an object lock.
            observe_point("counter.loaded", dep=hashed_dep, value=ops)
        self._wake()

    def flush(self) -> None:
        yield_point("store.flush")
        self.kv.flushall()
        self._wake()
