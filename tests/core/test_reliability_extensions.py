"""At-least-once dedup, give-up timeouts, and multi-object unrolling."""

import pytest

from repro.broker import Message
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model
from repro.runtime.workers import SubscriberWorkerPool


@pytest.fixture
def eco():
    return Ecosystem()


def build(eco):
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name", "n"])
    class User(Model):
        name = Field(str)
        n = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name", "n"]}, name="User")
    class SubUser(Model):
        name = Field(str)
        n = Field(int, default=0)

    return pub, pub.registry["User"], sub, sub.registry["User"]


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

    def test_dedup_window_is_bounded(self, eco):
        pub, User, sub, SubUser = build(eco)
        subscriber = sub.subscriber
        for i in range(subscriber._applied_uids.maxlen + 10):
            subscriber._mark_applied(f"u{i}")
        assert len(subscriber._applied_uid_set) == subscriber._applied_uids.maxlen
        assert "u0" not in subscriber._applied_uid_set


class TestGiveUpTimeout:
    def test_apply_action_unblocks_lost_dependency(self, eco):
        """§6.5's recommendation: a causal subscriber with a finite
        give-up timeout rides through message loss."""
        pub, User, sub, SubUser = build(eco)
        user = User.create(name="v1")
        eco.broker.drop_next(1)
        user.update(name="v2")  # lost forever
        user.update(name="v3")
        pool = SubscriberWorkerPool(
            sub, workers=2, wait_timeout=0.01, max_deliveries=3,
            give_up_action="apply",
        )
        with pool:
            assert pool.wait_until_idle(timeout=10)
        # The blocked v3 was force-applied after the timeout.
        assert SubUser.find(user.id).name == "v3"
        assert eco.metrics.value("workers.sub.deadlocked") >= 1

    def test_invalid_action_rejected(self, eco):
        pub, User, sub, SubUser = build(eco)
        with pytest.raises(ValueError):
            SubscriberWorkerPool(sub, give_up_action="explode")

    def test_force_apply_is_idempotent(self, eco):
        pub, User, sub, SubUser = build(eco)
        User.create(name="a")
        message = sub.subscriber.queue.pop()
        sub.subscriber.force_apply(message)
        sub.subscriber.force_apply(message)
        assert SubUser.count() == 1
        assert eco.metrics.value("subscriber.sub.processed") == 1


class TestMultiObjectUnrolling:
    def test_update_all_publishes_per_object_messages(self, eco):
        pub, User, sub, SubUser = build(eco)
        for i in range(5):
            User.create(name="bulk", n=i)
        before = pub.publisher.messages_published
        updated = User.update_all({"name": "bulk"}, n=99)
        assert len(updated) == 5
        # One message per object, not one bulk message (§4.2).
        assert pub.publisher.messages_published == before + 5
        sub.subscriber.drain()
        assert all(u.n == 99 for u in SubUser.where(name="bulk"))

    def test_update_all_fires_callbacks_per_object(self, eco):
        events = []
        svc = eco.service("svc", database=MongoLike("m"))

        from repro.orm import after_update

        @svc.model()
        class Thing(Model):
            x = Field(int)

            @after_update
            def log(self):
                events.append(self.id)

        a = Thing.create(x=1)
        b = Thing.create(x=1)
        Thing.update_all({"x": 1}, x=2)
        assert sorted(events) == [a.id, b.id]

    def test_destroy_all(self, eco):
        pub, User, sub, SubUser = build(eco)
        for i in range(4):
            User.create(name="gone", n=i)
        User.create(name="kept")
        sub.subscriber.drain()
        assert User.destroy_all(name="gone") == 4
        sub.subscriber.drain()
        assert [u.name for u in SubUser.all()] == ["kept"]
