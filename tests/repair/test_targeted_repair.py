"""Targeted repair: the §6.5 incident healed in O(divergence).

The acceptance scenario: N write-messages are lost under causal
delivery, wedging the subscriber (follow-up messages wait forever for
the lost counter increments). The auditor detects exactly the divergent
objects; targeted repair re-publishes only those and fast-forwards their
dependency counters — replicas end digest-equal with the queue intact:
no decommission, no full re-bootstrap.
"""

import pytest

from repro.broker import Message
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model
from repro.repair import ReplicationAuditor, repair_subscriber


@pytest.fixture
def eco():
    return Ecosystem()


def build_pair(eco, objects=20):
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name", "score"], name="User")
    class User(Model):
        name = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name", "score"]},
               name="User")
    class SubUser(Model):
        name = Field(str)
        score = Field(int, default=0)

    users = [User.create(name=f"u{i}", score=i) for i in range(objects)]
    sub.subscriber.drain()
    return pub, sub, users


class TestLossRepair:
    def test_lost_messages_healed_without_decommission_or_bootstrap(self, eco):
        """The acceptance criterion end to end."""
        pub, sub, users = build_pair(eco, objects=30)
        lost = users[5:8]  # N = 3

        eco.broker.drop_next(len(lost))
        for user in lost:
            user.update(score=user.score + 1000)   # lost on the wire
        # Follow-up writes to the same objects wedge the causal queue:
        # their messages wait for the lost increments (§6.5 deadlock).
        for user in lost:
            user.update(score=user.score + 1000)
        sub.subscriber.drain()
        SubUser = sub.registry["User"]
        assert SubUser.find(lost[0].id).score == 5  # still the old value
        assert len(sub.subscriber.queue) == len(lost)

        # 1. Detection: exactly the divergent objects, nothing else.
        report = ReplicationAuditor(sub).audit()
        assert sorted(report.divergent_for("pub", "User")) == \
            sorted(u.id for u in lost)

        # 2. Repair: targeted re-publish heals data AND counters.
        result = repair_subscriber(sub, report=report)
        assert result.objects_repaired == len(lost)
        assert result.verified_in_sync
        for user in lost:
            assert SubUser.find(user.id).score == user.score

        # 3. No heavyweight §6.5 remedy was used: the queue survived
        # (never decommissioned) and drained completely.
        stats = eco.broker.queue_stats("sub")["sub"]
        assert stats["decommissioned"] == 0
        assert stats["queued"] == 0 and stats["in_flight"] == 0
        assert not sub.bootstrap_active

    def test_repair_cost_scales_with_divergence_not_dataset(self, eco):
        """Only the divergent objects are re-published."""
        pub, sub, users = build_pair(eco, objects=50)
        eco.broker.drop_next(1)
        users[10].update(score=9999)
        sub.subscriber.drain()
        result = repair_subscriber(sub)
        assert result.objects_repaired == 1
        assert result.messages_published == 1
        snap = eco.metrics.snapshot()
        assert snap["repair.pub.republished"] == 1
        # The subscriber applied exactly one repaired object, not 50.
        assert snap["repair.sub.applied_objects"] == 1

    def test_live_traffic_flows_after_repair(self, eco):
        """Repair must leave the ordinary causal pipeline working."""
        pub, sub, users = build_pair(eco, objects=10)
        eco.broker.drop_next(1)
        users[0].update(score=111)
        sub.subscriber.drain()
        repair_subscriber(sub)
        users[0].update(score=222)   # ordinary post-repair traffic
        users[3].update(score=333)
        sub.subscriber.drain()
        SubUser = sub.registry["User"]
        assert SubUser.find(users[0].id).score == 222
        assert SubUser.find(users[3].id).score == 333
        assert ReplicationAuditor(sub).audit().in_sync

    def test_ghost_rows_repaired_with_deletes(self, eco):
        """A lost delete-message leaves a subscriber-side ghost; repair
        removes it instead of re-bootstrapping."""
        pub, sub, users = build_pair(eco, objects=10)
        ghost_id = users[4].id
        eco.broker.drop_next(1)
        users[4].destroy()           # the delete never arrives
        sub.subscriber.drain()
        SubUser = sub.registry["User"]
        assert SubUser.__mapper__.find(ghost_id) is not None  # ghost
        result = repair_subscriber(sub)
        assert result.deletes_published == 1
        assert result.verified_in_sync
        assert SubUser.__mapper__.find(ghost_id) is None

    def test_repair_of_synced_replicas_is_a_noop(self, eco):
        pub, sub, users = build_pair(eco, objects=5)
        result = repair_subscriber(sub)
        assert result.objects_repaired == 0
        assert result.messages_published == 0
        assert result.verified_in_sync

    def test_repair_messages_are_flagged_and_versioned(self, eco):
        """Repair traffic is ordinary versioned pub/sub traffic."""
        pub, sub, users = build_pair(eco, objects=5)
        eco.broker.drop_next(1)
        users[2].update(score=777)
        sub.subscriber.drain()

        seen = []
        original_publish = eco.broker.publish

        def spy(message):
            seen.append(message)
            original_publish(message)

        eco.broker.publish = spy
        repair_subscriber(sub)
        repair_messages = [m for m in seen if m.repair]
        assert len(repair_messages) == 1
        message = repair_messages[0]
        assert message.dependencies           # carries version counters
        assert message.generation == pub.current_generation()
        # Wire round trip preserves the flag.
        assert Message.from_json(message.to_json()).repair is True

    def test_batching_splits_large_divergence(self, eco):
        pub, sub, users = build_pair(eco, objects=12)
        eco.broker.drop_next(10)
        for user in users[:10]:
            user.update(score=user.score + 500)
        sub.subscriber.drain()
        result = repair_subscriber(sub, batch_size=4)
        assert result.objects_repaired == 10
        assert result.messages_published == 3  # ceil(10/4)
        assert result.verified_in_sync

    def test_service_repair_replication_surface(self, eco):
        pub, sub, users = build_pair(eco, objects=5)
        eco.broker.drop_next(1)
        users[1].update(score=42)
        sub.subscriber.drain()
        result = sub.repair_replication()
        assert result.verified_in_sync
        assert sub.registry["User"].find(users[1].id).score == 42


class TestRepairVsBootstrapSemantics:
    def test_corrupted_subscriber_row_repaired_in_place(self, eco):
        """Divergence need not come from message loss: a subscriber-side
        corruption (manual DB edit, bad migration) is found and fixed."""
        pub, sub, users = build_pair(eco, objects=8)
        SubUser = sub.registry["User"]
        SubUser.__mapper__._do_update(users[6].id, {"name": "corrupted"})
        report = ReplicationAuditor(sub).audit()
        assert report.divergent_for("pub", "User") == [users[6].id]
        result = repair_subscriber(sub, report=report)
        assert result.verified_in_sync
        assert SubUser.find(users[6].id).name == users[6].name

    def test_stale_repair_discarded_fresh_kept(self, eco):
        """Repair applies with fresh-or-discard semantics: if the live
        pipeline already advanced an object past the audit snapshot, the
        slower repair message must not regress it."""
        pub, sub, users = build_pair(eco, objects=5)
        eco.broker.drop_next(1)
        users[0].update(score=100)
        sub.subscriber.drain()
        report = ReplicationAuditor(sub).audit()
        # Between audit and repair, the object moves on and replicates.
        users[0].update(score=200)
        sub.subscriber.drain()

        # drain() above is wedged (the 100-update was lost), so the 200
        # message is still queued; repair both heals and un-wedges.
        result = repair_subscriber(sub, report=report)
        assert result.verified_in_sync
        assert sub.registry["User"].find(users[0].id).score == 200
