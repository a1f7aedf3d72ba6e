"""Property-based tests on the Synapse replication invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.kv import RedisLike
from repro.versionstore import (
    PublisherVersionStore,
    ShardedKV,
    SubscriberVersionStore,
)

# ---------------------------------------------------------------------------
# Version-store algorithm properties
# ---------------------------------------------------------------------------

OBJECTS = ["a", "b", "c", "d"]

operations = st.lists(
    st.tuples(
        st.sets(st.sampled_from(OBJECTS), max_size=2),   # read deps
        st.sets(st.sampled_from(OBJECTS), min_size=1, max_size=2),  # write deps
    ),
    min_size=1,
    max_size=25,
)


def publish_all(ops):
    """Run the publisher algorithm; returns the per-op dependency maps."""
    store = PublisherVersionStore(ShardedKV([RedisLike("p")]))
    messages = []
    for read_deps, write_deps in ops:
        reads = sorted(read_deps - write_deps)
        messages.append(store.register_operation(reads, sorted(write_deps))[0])
    return messages


class TestVersionStoreAlgorithm:
    @given(ops=operations)
    @settings(max_examples=80, deadline=None)
    def test_publish_order_is_always_processable(self, ops):
        """Delivering in publish order never blocks a subscriber."""
        messages = publish_all(ops)
        sub = SubscriberVersionStore(ShardedKV([RedisLike("s")]))
        for deps in messages:
            assert sub.satisfied(deps), (deps, messages)
            sub.apply(deps)

    @given(ops=operations, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=80, deadline=None)
    def test_any_greedy_dependency_respecting_order_drains(self, ops, seed):
        """From any delivery permutation, greedily applying whatever is
        satisfied always drains the backlog (no artificial deadlock) and
        ends with identical counters."""
        import random

        messages = publish_all(ops)
        reference = SubscriberVersionStore(ShardedKV([RedisLike("r")]))
        for deps in messages:
            reference.apply(deps)

        rng = random.Random(seed)
        shuffled = list(messages)
        rng.shuffle(shuffled)
        sub = SubscriberVersionStore(ShardedKV([RedisLike("s")]))
        pending = shuffled
        while pending:
            ready = [m for m in pending if sub.satisfied(m)]
            assert ready, "greedy deadlock despite complete delivery"
            for deps in ready:
                sub.apply(deps)
            pending = [m for m in pending if m not in ready]
        for obj in OBJECTS:
            assert sub.ops(obj) == reference.ops(obj)

    @given(ops=operations)
    @settings(max_examples=80, deadline=None)
    def test_write_versions_strictly_increase_per_object(self, ops):
        messages = publish_all(ops)
        last_write_version = {}
        for (read_deps, write_deps), deps in zip(ops, messages):
            for obj in write_deps:
                version = deps[obj]
                if obj in last_write_version:
                    assert version > last_write_version[obj]
                last_write_version[obj] = version

    @given(versions=st.lists(st.integers(min_value=0, max_value=50),
                             min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_weak_fast_forward_converges_to_max(self, versions):
        sub = SubscriberVersionStore(ShardedKV([RedisLike("s")]))
        applied = []
        for version in versions:
            if not sub.is_stale("obj", version):
                applied.append(version)
                sub.fast_forward("obj", version)
        assert sub.ops("obj") == max(versions) + 1
        # Applied versions are non-decreasing: no rollback ever visible.
        assert applied == sorted(applied)


# ---------------------------------------------------------------------------
# End-to-end replication properties
# ---------------------------------------------------------------------------

crud_ops = st.lists(
    st.tuples(
        st.sampled_from(["create", "update", "delete"]),
        st.integers(min_value=0, max_value=5),   # object slot
        st.integers(min_value=0, max_value=99),  # value
    ),
    min_size=1,
    max_size=30,
)


def build_pair():
    eco, pub, sub, Item = build_replicated_pair(fields={"n": int}, model="Item")
    return eco, pub, Item, sub, sub.registry["Item"]


class TestEndToEndReplication:
    @given(ops=crud_ops)
    @settings(max_examples=40, deadline=None)
    def test_subscriber_converges_to_published_projection(self, ops):
        eco, pub, Item, sub, SubItem = build_pair()
        live = {}
        with pub.controller():
            for kind, slot, value in ops:
                if kind == "create" and slot not in live:
                    live[slot] = Item.create(n=value)
                elif kind == "update" and slot in live:
                    live[slot].update(n=value)
                elif kind == "delete" and slot in live:
                    live[slot].destroy()
                    del live[slot]
        sub.subscriber.drain()
        pub_state = {i.id: i.n for i in Item.all()}
        sub_state = {i.id: i.n for i in SubItem.all()}
        assert sub_state == pub_state

    @given(ops=crud_ops, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_convergence_despite_queue_reordering(self, ops, seed):
        import random

        eco, pub, Item, sub, SubItem = build_pair()
        live = {}
        with pub.controller():
            for kind, slot, value in ops:
                if kind == "create" and slot not in live:
                    live[slot] = Item.create(n=value)
                elif kind == "update" and slot in live:
                    live[slot].update(n=value)
                elif kind == "delete" and slot in live:
                    live[slot].destroy()
                    del live[slot]
        queue = sub.subscriber.queue
        messages = []
        while True:
            message = queue.pop()
            if message is None:
                break
            messages.append(message)
        rng = random.Random(seed)
        rng.shuffle(messages)
        for message in messages:
            queue.nack(message)
        sub.subscriber.drain()
        assert {i.id: i.n for i in SubItem.all()} == \
            {i.id: i.n for i in Item.all()}

    @given(ops=crud_ops, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_weak_subscriber_converges_on_latest_versions(self, ops, seed):
        import random

        eco = Ecosystem()
        eco.service("pub", database=MongoLike("pub-db"))
        _, pub, sub, Item = build_replicated_pair(eco, {"n": int}, "Item", mode="weak")
        SubItem = sub.registry["Item"]
        live = {}
        for kind, slot, value in ops:
            if kind == "create" and slot not in live:
                live[slot] = Item.create(n=value)
            elif kind == "update" and slot in live:
                live[slot].update(n=value)
        queue = sub.subscriber.queue
        messages = []
        while True:
            message = queue.pop()
            if message is None:
                break
            queue.ack(message)
            messages.append(message)
        random.Random(seed).shuffle(messages)
        for message in messages:
            sub.subscriber.process_message(message)
        # Weak delivery in any order still ends at the latest versions.
        assert {i.id: i.n for i in SubItem.all()} == \
            {i.id: i.n for i in Item.all()}
