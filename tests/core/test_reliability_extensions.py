"""At-least-once dedup and give-up timeouts."""

import pytest

from repro.apps import build_replicated_pair
from repro.broker import Message
from repro.core import Ecosystem
from repro.runtime.workers import SubscriberWorkerPool


@pytest.fixture
def eco():
    return Ecosystem()


def build(eco):
    _, pub, sub, User = build_replicated_pair(eco, {"name": str, "n": int}, "User")
    return pub, User, sub, sub.registry["User"]


class TestAtLeastOnceDedup:
    def test_redelivered_message_is_not_applied_twice(self, eco):
        pub, User, sub, SubUser = build(eco)
        user = User.create(name="a")
        queue = sub.subscriber.queue
        message = queue.pop()
        assert sub.subscriber.process_message(message)
        # Worker crashed before acking: the broker redelivers.
        queue.nack(message)
        redelivered = queue.pop()
        assert redelivered.uid == message.uid
        assert sub.subscriber.process_message(redelivered)
        assert eco.metrics.value("subscriber.sub.duplicates") == 1
        # Counters were incremented exactly once: a follow-up update with
        # the expected dependency version applies cleanly.
        queue.ack(redelivered)
        user.update(name="b")
        sub.subscriber.drain()
        assert SubUser.find(user.id).name == "b"

    def test_uid_survives_wire_roundtrip(self, eco):
        pub, User, sub, SubUser = build(eco)
        User.create(name="a")
        message = sub.subscriber.queue.pop()
        assert Message.from_json(message.to_json()).uid == message.uid


class TestGiveUpTimeout:
    def test_apply_action_unblocks_lost_dependency(self, eco):
        """§6.5's recommendation: a causal subscriber with a finite
        give-up timeout rides through message loss — the give-up heals
        the lost update too."""
        pub, User, sub, SubUser = build(eco)
        user = User.create(name="v1")
        eco.broker.drop_next(1)
        user.update(name="v2")  # lost forever
        user.update(name="v3")
        pool = SubscriberWorkerPool(
            sub, workers=2, wait_timeout=0.01, max_deliveries=3,
        )
        with pool:
            assert pool.wait_until_idle(timeout=10)
        # The blocked v3 was given up on, and the heal landed it.
        assert SubUser.find(user.id).name == "v3"
        assert eco.metrics.value("workers.sub.gave_up") == 1
        assert sub.audit_replication().in_sync
