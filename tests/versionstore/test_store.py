"""Unit tests for version stores: the Fig 8 arithmetic, sharding, hashing."""

import os
import sys
import threading
import time
from collections import Counter

import pytest

from repro.databases.kv import RedisLike
from repro.versionstore import (
    DependencyHasher,
    HashRing,
    PublisherVersionStore,
    ShardedKV,
    SubscriberVersionStore,
)
from repro.versionstore.store import DONE, LOCK_STRIPES, READY, WAITING, StripedLocks


def make_kv(n_shards=1):
    return ShardedKV([RedisLike(f"shard{i}") for i in range(n_shards)])


@pytest.fixture
def pub_store():
    return PublisherVersionStore(make_kv())


@pytest.fixture
def sub_store():
    return SubscriberVersionStore(make_kv())


class TestHashRing:
    def test_deterministic_assignment(self):
        nodes = ["a", "b", "c"]
        ring1 = HashRing(list(nodes))
        ring2 = HashRing(list(nodes))
        keys = [f"key{i}" for i in range(100)]
        assert [ring1.node_for(k) for k in keys] == [ring2.node_for(k) for k in keys]

    def test_distribution_roughly_balanced(self):
        ring = HashRing(["a", "b", "c", "d"], vnodes=128)
        counts = Counter(ring.node_for(f"key{i}") for i in range(4000))
        assert set(counts) == {"a", "b", "c", "d"}
        assert all(500 < c < 1500 for c in counts.values())

    def test_remove_node_remaps_only_its_keys(self):
        """A ring without ``b`` places every key ``b`` did not own where
        the full ring does."""
        keys = [f"key{i}" for i in range(500)]
        before = {k: HashRing(["a", "b", "c"]).node_for(k) for k in keys}
        after = {k: HashRing(["a", "c"]).node_for(k) for k in keys}
        for key in keys:
            if before[key] != "b":
                assert after[key] == before[key]
            else:
                assert after[key] != "b"

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestDependencyHasher:
    def test_identity_by_default(self):
        assert DependencyHasher().hash("app/users/id/1") == "app/users/id/1"

    def test_folding_into_space(self):
        hasher = DependencyHasher(space=8)
        names = {hasher.hash(f"app/users/id/{i}") for i in range(1000)}
        assert len(names) <= 8
        assert all(n.startswith("d") for n in names)

    def test_stable(self):
        h1 = DependencyHasher(space=100)
        h2 = DependencyHasher(space=100)
        assert h1.hash("x") == h2.hash("x")

    def test_one_entry_space_serialises_everything(self):
        hasher = DependencyHasher(space=1)
        assert hasher.hash("a") == hasher.hash("b")

    def test_invalid_space(self):
        with pytest.raises(ValueError):
            DependencyHasher(space=0)


class TestPublisherAlgorithm:
    def test_fig8_trace(self, pub_store):
        """Exact counter/message arithmetic of Fig 8(b)."""
        u1, u2, p1, c1, c2 = (
            "user/id/1", "user/id/2", "post/id/1", "comment/id/1", "comment/id/2",
        )
        # W1: write [u1, p1]
        m1, _ = pub_store.register_operation(read_deps=[], write_deps=[u1, p1])
        assert m1 == {u1: 0, p1: 0}
        assert pub_store.current(u1) == (1, 1)
        assert pub_store.current(p1) == (1, 1)
        # W2: read [p1], write [u2, c1]
        m2, counters = pub_store.register_operation(read_deps=[p1], write_deps=[u2, c1])
        assert m2 == {u2: 0, c1: 0, p1: 1}
        assert pub_store.current(p1) == (2, 1)
        # The post-bump counters, read inside the bump's own script.
        assert counters == {u2: [1, 1], c1: [1, 1], p1: [2, 1]}
        # W3: read [p1], write [u1, c2]
        m3, _ = pub_store.register_operation(read_deps=[p1], write_deps=[u1, c2])
        assert m3 == {u1: 1, c2: 0, p1: 1}
        assert pub_store.current(u1) == (2, 2)
        assert pub_store.current(p1) == (3, 1)
        # W4: write [u1, p1]
        m4, _ = pub_store.register_operation(read_deps=[], write_deps=[u1, p1])
        assert m4 == {u1: 2, p1: 3}
        assert pub_store.current(u1) == (3, 3)
        assert pub_store.current(p1) == (4, 4)

    def test_write_wins_over_read_for_same_dep(self, pub_store):
        versions, counters = pub_store.register_operation(read_deps=["x"], write_deps=["x"])
        # ops: read bump ->1, write bump ->2; message carries version-1=1.
        assert versions == {"x": 1}
        assert counters == {"x": [2, 2]}

    def test_locks_block_concurrent_holders(self, pub_store):
        held = pub_store.acquire_write_locks(["a", "b"])
        acquired = []

        def other():
            handles = pub_store.acquire_write_locks(["b"])
            acquired.append(True)
            pub_store.release_locks(handles)

        t = threading.Thread(target=other)
        t.start()
        t.join(timeout=0.1)
        assert not acquired  # still blocked
        pub_store.release_locks(held)
        t.join(timeout=1)
        assert acquired == [True]

    def test_concurrent_bumps_never_lose_updates(self):
        store = PublisherVersionStore(make_kv(4))

        def worker():
            for _ in range(100):
                store.register_operation([], ["obj"])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.current("obj") == (400, 400)

    def test_snapshot_lists_hashed_deps(self, pub_store):
        pub_store.register_operation([], ["a"])
        pub_store.register_operation(["a"], ["b"])
        snap = pub_store.snapshot()
        assert snap == {"a": 2, "b": 1}


class TestSubscriberStore:
    def test_satisfied_and_apply(self, sub_store):
        deps = {"u1": 0, "p1": 0}
        assert sub_store.satisfied(deps)
        sub_store.apply(deps)
        assert sub_store.ops("u1") == 1
        assert not sub_store.satisfied({"p1": 2})
        assert sub_store.missing({"p1": 2}) == {"p1": (2, 1)}

    def test_fig8_subscriber_ordering(self, sub_store):
        """M2/M3 wait for M1; M4 waits for M2 and M3 (Fig 8c)."""
        m1 = {"u1": 0, "p1": 0}
        m2 = {"u2": 0, "c1": 0, "p1": 1}
        m3 = {"u1": 1, "c2": 0, "p1": 1}
        m4 = {"u1": 2, "p1": 3}
        assert sub_store.satisfied(m1)
        assert not sub_store.satisfied(m2)
        assert not sub_store.satisfied(m3)
        sub_store.apply(m1)
        assert sub_store.satisfied(m2) and sub_store.satisfied(m3)
        assert not sub_store.satisfied(m4)
        sub_store.apply(m3)
        assert not sub_store.satisfied(m4)
        sub_store.apply(m2)
        assert sub_store.satisfied(m4)

    def test_weak_mode_staleness(self, sub_store):
        assert not sub_store.is_stale("o", 0)
        sub_store.fast_forward("o", 5)  # applied version-5 message
        assert sub_store.ops("o") == 6
        assert sub_store.is_stale("o", 3)
        assert not sub_store.is_stale("o", 7)
        sub_store.fast_forward("o", 2)  # late stale apply cannot regress
        assert sub_store.ops("o") == 6

    def test_wait_satisfied_times_out(self, sub_store):
        assert not sub_store.wait_satisfied({"x": 5}, timeout=0.05)

    def test_wait_satisfied_wakes_on_apply(self, sub_store):
        results = []

        def waiter():
            results.append(sub_store.wait_satisfied({"x": 1}, timeout=2))

        t = threading.Thread(target=waiter)
        t.start()
        sub_store.apply({"x": 1})
        t.join(timeout=3)
        assert results == [True]

    def test_bulk_load_never_regresses(self, sub_store):
        sub_store.apply({"a": 0})
        sub_store.apply({"a": 0})
        sub_store.bulk_load({"a": 1, "b": 7})
        assert sub_store.ops("a") == 2
        assert sub_store.ops("b") == 7

    def test_flush(self, sub_store):
        sub_store.apply({"a": 0})
        sub_store.flush()
        assert sub_store.ops("a") == 0

    def test_verdicts_read_written_counters_against_carried_versions(self):
        """``satisfied(required, written)``: WAITING below a
        required version, DONE once every written counter is past its
        carried version, READY in between — on one shard or many."""
        for shards in (1, 4):
            store = SubscriberVersionStore(make_kv(shards))
            message = {"u1": 0, "p1": 0}
            written = {"p1": 0}
            assert store.satisfied(message, written) == READY
            assert store.satisfied({"p1": 1}, written) == WAITING
            assert not WAITING
            store.apply(message)  # the message applied
            assert store.satisfied(message, written) == DONE
            assert store.satisfied({}, written) == DONE
            assert store.satisfied({}, {"p1": 1}) == READY
            # Nothing written: never DONE.
            assert store.satisfied(message, {}) == READY
            assert store.satisfied({"p1": 2}, {"p1": 2}) == WAITING
            # Every written object must be past, not just one.
            assert store.satisfied({}, {"p1": 0, "c9": 0}) == READY


class TestStripedLocks:
    def test_table_does_not_grow_with_keys(self):
        table = StripedLocks()
        assert len(table) == LOCK_STRIPES
        for i in range(10_000):
            table.release(table.acquire([f"app/docs/{i}"]))
            with table.lock_for(f"app/users/{i}"):
                pass
        assert len(table) == LOCK_STRIPES

    def test_one_stripe_is_taken_once(self):
        table = StripedLocks()
        keys = [f"k{i}" for i in range(3 * LOCK_STRIPES)]  # stripes collide
        held = table.acquire(keys + keys)
        assert len(held) == len(set(map(id, held))) <= LOCK_STRIPES
        table.release(held)

    def test_overlapping_acquires_all_finish(self):
        """More threads than cores take overlapping key sets (in any
        order) and read-modify-write a counter per key under them: all
        finish, and no increment is lost."""
        table = StripedLocks()
        keys = [f"obj-{i}" for i in range(40)]
        counts = dict.fromkeys(keys, 0)
        workers, rounds = (os.cpu_count() or 1) + 4, 100
        finished = []

        def worker(offset):
            for round_ in range(rounds):
                chosen = {keys[(offset * 7 + round_ + j * 5) % len(keys)] for j in range(4)}
                held = table.acquire(reversed(sorted(chosen)))
                for key in chosen:
                    value = counts[key]
                    time.sleep(0)
                    counts[key] = value + 1
                table.release(held)
            finished.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(workers))
        assert sum(counts.values()) == workers * rounds * 4

    def test_publisher_and_subscriber_tables_are_separate(self):
        from repro.apps import build_replicated_pair

        _eco, pub, sub, _doc = build_replicated_pair()
        publisher_table = pub.publisher_version_store.locks
        subscriber_table = sub.subscriber._object_locks
        assert isinstance(publisher_table, StripedLocks)
        assert isinstance(subscriber_table, StripedLocks)
        assert publisher_table is not subscriber_table


class TestSharding:
    def test_counters_route_consistently_across_shards(self):
        store = PublisherVersionStore(make_kv(5))
        for i in range(50):
            store.register_operation([], [f"obj/{i}"])
        # Every dep readable back with correct value.
        for i in range(50):
            assert store.current(f"obj/{i}") == (1, 1)
        # Multiple shards actually used.
        used = [s for s in store.kv.shards if s.dbsize() > 0]
        assert len(used) > 1

    def test_hashed_space_bounds_memory(self):
        store = PublisherVersionStore(make_kv(2), DependencyHasher(space=4))
        for i in range(500):
            store.register_operation([], [f"obj/{i}"])
        assert store.kv.total_keys() <= 4
