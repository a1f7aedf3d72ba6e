"""Bootstrapping, failure recovery and the §6.5 production incidents."""

import pytest

from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber, recover_subscriber_version_store
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.errors import QueueDecommissioned
from repro.orm import Field, Model, after_create


@pytest.fixture
def eco():
    return Ecosystem(queue_limit=50)


def make_publisher(eco):
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"])
    class User(Model):
        name = Field(str)

    return pub, User


def make_subscriber(eco, name="sub"):
    sub = eco.service(name, database=PostgresLike(f"{name}-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name"]})
    class User(Model):
        name = Field(str)

    return sub, sub.registry["User"]


class TestBootstrap:
    def test_late_subscriber_catches_up(self, eco):
        """A subscriber deployed after data exists gets everything."""
        pub, User = make_publisher(eco)
        for i in range(10):
            User.create(name=f"u{i}")
        sub, SubUser = make_subscriber(eco)
        assert SubUser.count() == 0  # missed the pre-deploy traffic
        applied = bootstrap_subscriber(sub)
        assert len(applied) == 10
        assert SubUser.count() == 10
        assert not sub.bootstrap_active

    def test_bootstrap_then_live_traffic(self, eco):
        pub, User = make_publisher(eco)
        User.create(name="old")
        sub, SubUser = make_subscriber(eco)
        bootstrap_subscriber(sub)
        User.create(name="new")
        sub.subscriber.drain()
        assert {u.name for u in SubUser.all()} == {"old", "new"}

    def test_bootstrap_flag_visible_to_callbacks(self, eco):
        """Fig 2: the mailer suppresses emails during bootstrap."""
        pub, User = make_publisher(eco)
        User.create(name="old1")
        User.create(name="old2")

        sub = eco.service("mailer", database=MongoLike("mail-db"))
        sent = []

        @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="User")
        class SubUser(Model):
            name = Field(str)

            @after_create
            def welcome(self):
                if not type(self)._service.bootstrap_active:
                    sent.append(self.name)

        bootstrap_subscriber(sub)
        assert sent == []  # bulk phase: no emails
        pub.registry["User"].create(name="fresh")
        sub.subscriber.drain()
        assert sent == ["fresh"]

    def test_bootstrap_is_idempotent(self, eco):
        pub, User = make_publisher(eco)
        User.create(name="a")
        sub, SubUser = make_subscriber(eco)
        bootstrap_subscriber(sub)
        bootstrap_subscriber(sub)
        assert SubUser.count() == 1

    def test_bootstrap_preserves_causal_semantics_afterwards(self, eco):
        pub, User = make_publisher(eco)
        user = User.create(name="v1")
        sub, SubUser = make_subscriber(eco)
        bootstrap_subscriber(sub)
        # Post-bootstrap: ordered updates apply cleanly.
        user.update(name="v2")
        user.update(name="v3")
        sub.subscriber.drain()
        assert SubUser.find(user.id).name == "v3"

    def test_forced_applies_never_land_an_older_write_over_a_newer(self, eco):
        """A bootstrap's drain lands a queued write fresh-or-discard. The
        newest of three writes of one object reaches the queue first,
        while the object's counter is behind all three (the older two
        are held by a crashed worker): it lands and moves the counter
        past the other two, which are acked as duplicates once they
        come back."""
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        other = User.create(name="other")
        sub.subscriber.drain()
        user = User.create(name="v1")
        user.update(name="v2")
        user.update(name="v3")
        queue = sub.subscriber.queue
        writes = [queue.pop() for _ in range(3)]
        queue.nack(writes[-1])

        # A targeted bootstrap of another object drains the queue forced.
        bootstrap_subscriber(sub, scope={("pub", "User"): [other.id]})
        assert SubUser.find(user.id).name == "v3"
        assert queue.requeue_unacked() == 2
        assert sub.subscriber.drain() == 2
        assert eco.metrics.value("subscriber.sub.duplicates") == 2
        assert SubUser.find(user.id).name == "v3"
        assert sub.subscriber.stuck_dependencies() == {}
        user.update(name="v4")
        assert sub.subscriber.drain() == 1
        assert SubUser.find(user.id).name == "v4"


class TestQueueOverflowDecommission:
    def test_overflow_kills_queue_then_partial_bootstrap_recovers(self, eco):
        """§4.4: a dead subscriber's queue grows, gets killed; when the
        subscriber returns a partial bootstrap resynchronises it."""
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        # Subscriber is "down" (not draining) while traffic flows.
        for i in range(60):  # queue_limit=50
            User.create(name=f"u{i}")
        assert sub.subscriber.queue.decommissioned
        with pytest.raises(QueueDecommissioned):
            sub.subscriber.drain()
        bootstrap_subscriber(sub)
        assert SubUser.count() == 60
        # Live again.
        User.create(name="после")
        sub.subscriber.drain()
        assert SubUser.count() == 61


class TestVersionStoreFailures:
    def test_publisher_store_death_bumps_generation(self, eco):
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        User.create(name="a")
        sub.subscriber.drain()
        for shard in pub.publisher_version_store.kv.shards:
            shard.crash()
        User.create(name="b")  # publisher recovers transparently
        assert pub.current_generation() == 2
        sub.subscriber.drain()
        assert SubUser.count() == 2

    def test_subscriber_flushes_store_on_new_generation(self, eco):
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        User.create(name="a")
        sub.subscriber.drain()
        before = sub.subscriber_version_store.ops("pub/users/id/1")
        assert before > 0
        for shard in pub.publisher_version_store.kv.shards:
            shard.crash()
        User.create(name="b")
        sub.subscriber.drain()
        assert sub.subscriber.generations["pub"] == 2
        assert SubUser.count() == 2
        # Old generation counters were flushed; new ones restarted small.
        assert sub.subscriber_version_store.ops("pub/users/id/1") <= before

    def test_bootstrap_enters_the_publishers_new_generation(self, eco):
        """Bootstrap after a publisher generation bump flushes the old
        generation's counters before adopting the new one, as the live
        gate does. Adopting it without the flush keeps the doc's high
        old-generation counter (set-to-max), so its next update is
        acked as a duplicate and the row silently diverges."""
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        user = User.create(name="v0")
        for i in range(1, 4):
            user.update(name=f"v{i}")
        sub.subscriber.drain()
        pub.recover_publisher_version_store()
        sub.subscriber.drain()
        bootstrap_subscriber(sub)
        assert sub.subscriber.generations["pub"] == 2
        user.update(name="v4")
        sub.subscriber.drain()
        assert SubUser.find(user.id).name == "v4"
        assert sub.audit_replication().in_sync

    def test_subscriber_store_death_triggers_partial_bootstrap(self, eco):
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        User.create(name="a")
        sub.subscriber.drain()
        for shard in sub.subscriber_version_store.kv.shards:
            shard.crash()
        recover_subscriber_version_store(sub)
        assert SubUser.count() == 1
        User.create(name="b")
        sub.subscriber.drain()
        assert SubUser.count() == 2


class TestMessageLossIncident:
    def test_lost_message_deadlocks_causal_then_bootstrap_unblocks(self, eco):
        """The full §6.5 story: RabbitMQ upgrade loses messages, causal
        subscribers deadlock with filling queues, and Synapse's recovery
        (rebootstrap) unblocks them."""
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        user = User.create(name="v1")
        sub.subscriber.drain()
        eco.broker.drop_next(1)
        user.update(name="v2")  # lost
        user.update(name="v3")
        sub.subscriber.drain()
        # Deadlocked: v3 waits for the lost v2's increment.
        assert SubUser.find(user.id).name == "v1"
        assert len(sub.subscriber.queue) == 1
        # Recovery: partial bootstrap.
        bootstrap_subscriber(sub)
        assert SubUser.find(user.id).name == "v3"
        assert len(sub.subscriber.queue) == 0


class TestQueueLimitPath:
    """The default_queue_limit decommission path, end to end (§4.4)."""

    def test_exactly_at_limit_survives(self, eco):
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        for i in range(50):  # queue_limit=50: at the limit, not over
            User.create(name=f"u{i}")
        assert not sub.subscriber.queue.decommissioned
        sub.subscriber.drain()
        assert SubUser.count() == 50

    def test_one_over_limit_decommissions(self, eco):
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        for i in range(51):
            User.create(name=f"u{i}")
        queue = sub.subscriber.queue
        assert queue.decommissioned
        # The backlog is gone with the queue; lifetime counters remain.
        assert len(queue) == 0
        assert queue.total_published == 51

    def test_decommissioned_queue_drops_new_traffic(self, eco):
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        for i in range(60):
            User.create(name=f"u{i}")
        assert sub.subscriber.queue.decommissioned
        User.create(name="while-dead")  # silently dropped, no overflow error
        assert len(sub.subscriber.queue) == 0

    def test_bootstrap_fully_recovers_overflowed_subscriber(self, eco):
        """The satellite acceptance path: over-limit decommission, then
        bootstrap_subscriber restores every object and live traffic."""
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        for i in range(75):
            User.create(name=f"u{i}")
        assert sub.subscriber.queue.decommissioned
        applied = bootstrap_subscriber(sub)
        assert len(applied) == 75
        assert SubUser.count() == 75
        assert not sub.subscriber.queue.decommissioned
        # Digest-level proof of full recovery, and live traffic flows.
        assert sub.audit_replication().in_sync
        User.create(name="fresh")
        sub.subscriber.drain()
        assert SubUser.count() == 76

    def test_audit_reports_decommissioned_queue(self, eco):
        pub, User = make_publisher(eco)
        sub, SubUser = make_subscriber(eco)
        for i in range(60):
            User.create(name=f"u{i}")
        report = sub.audit_replication()
        assert report.lag["pub"].decommissioned
        assert not report.in_sync
