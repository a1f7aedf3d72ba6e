"""Per-publisher delivery-mode selection rules (§3.2)."""

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.errors import SubscriptionError
from repro.orm import Field, Model


def make_two_model_publisher(eco, mode="causal"):
    pub = eco.service("pub", database=MongoLike("p"), delivery_mode=mode)

    @pub.model(publish=["a"])
    class Alpha(Model):
        a = Field(int)

    @pub.model(publish=["b"])
    class Beta(Model):
        b = Field(int)

    return pub


class TestPerPublisherModes:
    def test_conflicting_modes_for_one_publisher_rejected(self):
        eco = Ecosystem()
        make_two_model_publisher(eco)
        sub = eco.service("sub", database=PostgresLike("s"))

        @sub.model(subscribe={"from": "pub", "fields": ["a"], "mode": "causal"},
                   name="Alpha")
        class SubAlpha(Model):
            a = Field(int)

        with pytest.raises(SubscriptionError):
            @sub.model(subscribe={"from": "pub", "fields": ["b"],
                                  "mode": "weak"}, name="Beta")
            class SubBeta(Model):
                b = Field(int)

    def test_same_mode_for_both_models_fine(self):
        eco = Ecosystem()
        make_two_model_publisher(eco)
        sub = eco.service("sub", database=PostgresLike("s"))

        @sub.model(subscribe={"from": "pub", "fields": ["a"], "mode": "weak"},
                   name="Alpha")
        class SubAlpha(Model):
            a = Field(int)

        @sub.model(subscribe={"from": "pub", "fields": ["b"], "mode": "weak"},
                   name="Beta")
        class SubBeta(Model):
            b = Field(int)

        assert sub.subscriber.app_modes["pub"] == "weak"

    def test_different_modes_for_different_publishers_fine(self):
        """The Crowdtap pattern: causal from one app, weak from another."""
        eco = Ecosystem()
        make_two_model_publisher(eco)
        eco.service("other", database=MongoLike("o"))
        eco.service("sub", database=PostgresLike("s"))
        build_replicated_pair(eco, {"a": int}, "Alpha")
        _, _, sub, _ = build_replicated_pair(
            eco, {"c": int}, "Gamma", mode="weak", pub="other"
        )
        assert sub.subscriber.app_modes == {"pub": "causal", "other": "weak"}

    def test_unsubscribed_model_messages_still_advance_dependencies(self):
        """A subscriber taking only Alpha must still count Beta's
        messages, or cross-model causal chains would deadlock."""
        eco = Ecosystem()
        pub = make_two_model_publisher(eco)
        Alpha, Beta = pub.registry["Alpha"], pub.registry["Beta"]
        sub = eco.service("sub", database=PostgresLike("s"))

        @sub.model(subscribe={"from": "pub", "fields": ["a"]}, name="Alpha")
        class SubAlpha(Model):
            a = Field(int)

        with pub.controller():
            Beta.create(b=1)          # chained: alpha depends on beta's write
            Alpha.create(a=1)
        assert sub.subscriber.drain() == 2
        assert sub.registry["Alpha"].count() == 1
