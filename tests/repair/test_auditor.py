"""ReplicationAuditor: divergence detection, lag-vs-loss, watermarks."""

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.errors import SynapseError
from repro.orm import Field, Model
from repro.repair import ReplicationAuditor


@pytest.fixture
def eco():
    return Ecosystem()


def build_pair(eco):
    _, pub, sub, _ = build_replicated_pair(eco, {"name": str, "score": int}, "User")
    return pub, sub


class TestAudit:
    def test_synced_replicas_audit_clean(self, eco):
        pub, sub = build_pair(eco)
        User = pub.registry["User"]
        for i in range(10):
            User.create(name=f"u{i}", score=i)
        sub.subscriber.drain()
        report = ReplicationAuditor(sub).audit()
        assert report.in_sync
        assert report.divergent_total == 0
        assert not report.suspected_loss
        assert report.lag["pub"].in_transit == 0
        assert report.lag["pub"].version_lag == 0

    def test_lost_message_pinpointed(self, eco):
        pub, sub = build_pair(eco)
        User = pub.registry["User"]
        users = [User.create(name=f"u{i}") for i in range(10)]
        sub.subscriber.drain()
        eco.broker.drop_next(1)
        users[3].update(score=99)  # lost on the wire
        sub.subscriber.drain()
        report = ReplicationAuditor(sub).audit()
        assert report.divergent_for("pub", "User") == [users[3].id]
        # Queue is idle yet the replica diverges and the version counter
        # never caught up: the §6.5 loss signature, not transit lag.
        assert report.suspected_loss
        assert report.lag["pub"].version_lag > 0

    def test_queued_messages_read_as_transit_lag(self, eco):
        pub, sub = build_pair(eco)
        User = pub.registry["User"]
        User.create(name="a")
        # Not drained: the message sits in the queue.
        report = ReplicationAuditor(sub).audit()
        assert report.divergent_total == 1
        assert report.lag["pub"].queued == 1
        assert not report.suspected_loss

    def test_in_flight_messages_read_as_transit_lag(self, eco):
        pub, sub = build_pair(eco)
        User = pub.registry["User"]
        User.create(name="a")
        # A worker popped the message but has not acked it yet.
        queue = sub.subscriber.queue
        delivery = queue.pop()
        assert delivery is not None
        report = ReplicationAuditor(sub).audit()
        assert report.lag["pub"].queued == 0
        assert report.lag["pub"].in_flight == 1
        assert not report.suspected_loss
        queue.nack(delivery)

    def test_lag_is_the_monitors_reading_of_each_link(self, eco):
        """A subscriber of two publishers with only ``pub2``'s writes
        queued: the audit charges them to ``pub2`` alone, and reads
        every link exactly as the lag monitor does — without the
        monitor's breach events."""
        pub1 = eco.service("pub1", database=MongoLike("pub1-db"))
        pub2 = eco.service("pub2", database=MongoLike("pub2-db"))

        @pub1.model(publish=["name"])
        class Post(Model):
            name = Field(str)

        @pub2.model(publish=["name"])
        class Like(Model):
            name = Field(str)

        sub = eco.service("sub", database=PostgresLike("sub-db"))

        @sub.model(subscribe={"from": "pub1", "fields": ["name"]}, name="Post")
        class SubPost(Model):
            name = Field(str)

        @sub.model(subscribe={"from": "pub2", "fields": ["name"]}, name="Like")
        class SubLike(Model):
            name = Field(str)

        Post.create(name="a")
        sub.subscriber.drain()
        for i in range(3):
            Like.create(name=f"b{i}")

        report = ReplicationAuditor(sub).audit()
        assert report.lag["pub1"].in_transit == 0
        assert report.lag["pub2"].queued == 3
        for app in ("pub1", "pub2"):
            audited, monitored = report.lag[app], eco.monitor.link(app, "sub")
            for name in ("queued", "in_flight", "version_lag", "shed_deficit"):
                assert getattr(audited, name) == getattr(monitored, name), name
        assert not eco.recorder.events("slo.breach")
        assert not eco.recorder.events("slo.recovered")

    def test_unknown_publisher_rejected(self, eco):
        pub, sub = build_pair(eco)
        with pytest.raises(SynapseError):
            ReplicationAuditor(sub).audit("nope")

    def test_audit_does_not_perturb_pipeline(self, eco):
        """Audits must not publish messages or record dependencies."""
        pub, sub = build_pair(eco)
        User = pub.registry["User"]
        User.create(name="a")
        sub.subscriber.drain()
        published_before = pub.publisher.messages_published
        counters_before = pub.publisher_version_store.snapshot()
        ReplicationAuditor(sub).audit()
        assert pub.publisher.messages_published == published_before
        assert pub.publisher_version_store.snapshot() == counters_before

    def test_audit_metrics_recorded(self, eco):
        pub, sub = build_pair(eco)
        User = pub.registry["User"]
        User.create(name="a")
        sub.subscriber.drain()
        ReplicationAuditor(sub).audit()
        snap = eco.metrics.snapshot()
        assert snap["repair.sub.audits"] == 1
        assert snap["repair.sub.divergent_objects"] == 0
        assert snap["repair.sub.audit_time"]["count"] == 1

    def test_audit_traces_digest_and_diff_stages(self, eco):
        pub, sub = build_pair(eco)
        eco.enable_tracing()
        User = pub.registry["User"]
        User.create(name="a")
        sub.subscriber.drain()
        eco.tracer.clear()
        ReplicationAuditor(sub).audit()
        trace = eco.tracer.last()
        assert trace is not None
        assert "audit.digest" in trace.stages()
        assert "audit.diff" in trace.stages()


class TestMultiPublisher:
    def test_rows_of_other_publishers_not_flagged(self, eco):
        """Fig 3: a table merging two publishers' rows must not treat the
        other publisher's rows (disjoint id spaces) as divergence."""
        pub_a = eco.service("appA", database=MongoLike("a-db"))

        @pub_a.model(publish=["name"], name="Item")
        class ItemA(Model):
            name = Field(str)

        pub_b = eco.service("appB", database=MongoLike("b-db"))

        @pub_b.model(publish=["name"], name="Item")
        class ItemB(Model):
            name = Field(str)

        sub = eco.service("sub", database=PostgresLike("sub-db"))

        @sub.model(subscribe=[
            {"from": "appA", "fields": ["name"]},
            {"from": "appB", "fields": ["name"]},
        ], name="Item")
        class SubItem(Model):
            name = Field(str)

        # Burn appB's id 1 so the two publishers' id spaces are disjoint
        # (colliding ids on the same published field are a config error,
        # not something anti-entropy can arbitrate).
        burner = ItemB.create(name="burner")
        burner.destroy()
        ItemA.create(name="from-a")   # appA id 1
        ItemB.create(name="from-b")   # appB id 2
        sub.subscriber.drain()
        report = ReplicationAuditor(sub).audit()
        # Each publisher sees the other's row in the merged table, but
        # neither may claim it as divergent (else repair would delete it).
        assert report.in_sync, [m.divergent_ids for m in report.models]

    def test_disjoint_attribute_publishers_audit_clean(self, eco):
        """Fig 3's other shape: two publishers decorate *different
        attributes* of the same logical objects; per-subscription field
        projections keep their digests independent."""
        pub_a = eco.service("appA", database=MongoLike("a-db"))

        @pub_a.model(publish=["name"], name="Item")
        class ItemA(Model):
            name = Field(str)

        pub_b = eco.service("appB", database=MongoLike("b-db"))

        @pub_b.model(publish=["rating"], name="Item")
        class ItemB(Model):
            rating = Field(int, default=0)

        sub = eco.service("sub", database=PostgresLike("sub-db"))

        @sub.model(subscribe=[
            {"from": "appA", "fields": ["name"]},
            {"from": "appB", "fields": ["rating"]},
        ], name="Item")
        class SubItem(Model):
            name = Field(str)
            rating = Field(int, default=0)

        ItemA.create(name="thing")   # same id=1 on both publishers
        ItemB.create(rating=5)
        sub.subscriber.drain()
        report = ReplicationAuditor(sub).audit()
        assert report.in_sync, [m.divergent_ids for m in report.models]


class TestServiceSurface:
    def test_service_audit_replication(self, eco):
        pub, sub = build_pair(eco)
        User = pub.registry["User"]
        User.create(name="a")
        sub.subscriber.drain()
        report = sub.audit_replication()
        assert report.in_sync
        assert report.subscriber == "sub"
