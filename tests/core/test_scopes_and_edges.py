"""Background jobs, explicit dependencies, partial bootstrap scoping and
assorted error paths."""

import pytest

from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.errors import SynapseError
from repro.orm import Field, Model


@pytest.fixture
def eco():
    return Ecosystem()


def build(eco):
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"])
    class User(Model):
        name = Field(str)

    @pub.model(publish=["label"])
    class Widget(Model):
        label = Field(str)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="User")
    class SubUser(Model):
        name = Field(str)

    @sub.model(subscribe={"from": "pub", "fields": ["label"]}, name="Widget")
    class SubWidget(Model):
        label = Field(str)

    return pub, sub


class TestBackgroundJobs:
    def test_background_job_chains_writes(self, eco):
        """Sidekiq-style jobs get the same implicit tracking (§4.2)."""
        pub, sub = build(eco)
        User = pub.registry["User"]
        probe = eco.broker.bind("probe", "pub")
        with pub.background_job():
            a = User.create(name="a")
            User.create(name="b")
        probe.pop()
        m2 = probe.pop()
        # Chained: second create read-depends on the first.
        assert f"pub/users/id/{a.id}" in m2.dependencies

    def test_explicit_read_deps_synchronise_aggregations(self, eco):
        """add_read_deps covers aggregation queries Synapse cannot infer
        (§4.2)."""
        pub, sub = build(eco)
        User = pub.registry["User"]
        existing = User.create(name="seed")
        probe = eco.broker.bind("probe", "pub")
        with pub.controller() as ctx:
            assert User.count() == 1  # aggregation: no implicit dep
            ctx.add_read_deps(existing)
            User.create(name="derived")
        message = probe.pop()
        assert f"pub/users/id/{existing.id}" in message.dependencies


class TestPartialBootstrapScope:
    def test_models_filter_limits_bulk_phase(self, eco):
        pub, sub = build(eco)
        User = pub.registry["User"]
        Widget = pub.registry["Widget"]
        User.create(name="u")
        Widget.create(label="w")
        # Bootstrap only the Widget model.
        applied = bootstrap_subscriber(sub, scope={("pub", "Widget"): None})
        assert len(applied) == 1
        assert sub.registry["Widget"].count() == 1
        # User arrived through the normal queue drain (step 3), not bulk.
        assert sub.registry["User"].count() == 1

    def test_a_model_scope_across_a_generation_bump_keeps_other_writes(self, eco):
        """A model-scoped bootstrap that enters a newer publisher
        generation finishes the old one first, as the live gate does: an
        old-generation update of another model still queued is applied,
        not discarded, and that model's next write lands by a drain."""
        pub, sub = build(eco)
        User = pub.registry["User"]
        user = User.create(name="a")
        pub.registry["Widget"].create(label="w")
        sub.subscriber.drain()
        user.update(name="b")  # queued, old generation
        pub.recover_publisher_version_store()
        bootstrap_subscriber(sub, scope={("pub", "Widget"): None})
        SubUser = sub.registry["User"]
        assert SubUser.find(user.id).name == "b"
        user.update(name="c")
        sub.subscriber.drain()
        assert SubUser.find(user.id).name == "c"
        assert sub.subscriber.stuck_dependencies() == {}
        assert sub.audit_replication().in_sync

    def test_no_subscriptions_is_a_noop(self, eco):
        lonely = eco.service("lonely", database=MongoLike("l"))
        assert bootstrap_subscriber(lonely) == []
        assert lonely.subscriber.drain() == 0


class TestErrorPaths:
    def test_duplicate_model_name_in_service_rejected(self, eco):
        pub, sub = build(eco)
        with pytest.raises(SynapseError):
            @pub.model(name="User")
            class AnotherUser(Model):
                name = Field(str)

    def test_unknown_bootstrap_publisher_rejected(self, eco):
        pub, sub = build(eco)
        sub.subscriber.specs[("ghost", "User")] = \
            sub.subscriber.specs[("pub", "User")]
        with pytest.raises(SynapseError):
            bootstrap_subscriber(sub, "ghost")

    def test_generation_regression_is_harmless(self, eco):
        """A stale-generation message (e.g. an old redelivery) processes
        without disturbing the current generation."""
        pub, sub = build(eco)
        User = pub.registry["User"]
        User.create(name="a")
        sub.subscriber.drain()
        sub.subscriber.generations["pub"] = 5  # pretend we're ahead
        User.create(name="b")
        sub.subscriber.drain()
        assert sub.registry["User"].count() == 2
        assert sub.subscriber.generations["pub"] == 5
