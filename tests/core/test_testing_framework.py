"""Tests for the Synapse testing framework (§4.5)."""

import pytest

from repro.broker import Message
from repro.core import Ecosystem
from repro.core.testing import ModelFactory, PublisherFactoryFile, check_ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.errors import SynapseError
from repro.orm import Field, Model


@pytest.fixture
def eco():
    return Ecosystem()


def build_pub(eco):
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name", "email"])
    class User(Model):
        name = Field(str)
        email = Field(str)

    return pub, User


def build_sub(eco):
    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name", "email"]})
    class User(Model):
        name = Field(str)
        email = Field(str)

    return sub, sub.registry["User"]


class TestModelFactory:
    def test_sequenced_defaults(self, eco):
        _, User = build_pub(eco)
        factory = ModelFactory(User, {"name": lambda n: f"user{n}", "email": "x@y"})
        a = factory.build_attributes()
        b = factory.build_attributes()
        assert (a["name"], b["name"]) == ("user1", "user2")
        assert a["id"] == 1 and b["id"] == 2
        assert a["email"] == "x@y"

    def test_overrides_win(self, eco):
        _, User = build_pub(eco)
        factory = ModelFactory(User, {"name": "default"})
        attrs = factory.build_attributes(name="custom", id=99)
        assert attrs["name"] == "custom"
        assert attrs["id"] == 99


class TestPublisherFactoryFile:
    def test_register_requires_published_model(self, eco):
        pub, User = build_pub(eco)

        @pub.model()
        class Hidden(Model):
            x = Field(int)

        factories = PublisherFactoryFile(pub)
        factories.register(User, name="u")
        with pytest.raises(SynapseError):
            factories.register(Hidden, x=1)

    def test_emulated_payload_matches_wire_format(self, eco):
        pub, User = build_pub(eco)
        factories = PublisherFactoryFile(pub)
        factories.register(User, name=lambda n: f"user{n}", email="a@b")
        message = factories.emulate_payload("User")
        op = message.operations[0]
        assert message.app == "pub"
        assert op["operation"] == "create"
        assert op["types"] == ["User"]
        assert set(op["attributes"]) == {"name", "email"}
        # Round-trips through the wire format.
        assert Message.from_json(message.to_json()).operations == message.operations

    def test_deliver_runs_subscriber_integration(self, eco):
        """A subscriber test can run without the publisher app running."""
        pub, User = build_pub(eco)
        sub, SubUser = build_sub(eco)
        factories = PublisherFactoryFile(pub)
        factories.register(User, name="ada", email="ada@lovelace.org")
        factories.deliver(sub, "User")
        assert SubUser.count() == 1
        assert SubUser.all()[0].email == "ada@lovelace.org"

    def test_deliver_update_and_delete(self, eco):
        pub, User = build_pub(eco)
        sub, SubUser = build_sub(eco)
        factories = PublisherFactoryFile(pub)
        factories.register(User, name="v1", email="e")
        factories.deliver(sub, "User", id=7)
        factories.deliver(sub, "User", kind="update", id=7, name="v2")
        assert SubUser.find(7).name == "v2"
        factories.deliver(sub, "User", kind="delete", id=7)
        assert SubUser.count() == 0

    def test_unknown_factory_rejected(self, eco):
        pub, _ = build_pub(eco)
        factories = PublisherFactoryFile(pub)
        with pytest.raises(SynapseError):
            factories.emulate_payload("Ghost")


class TestEcosystemCheck:
    def test_healthy_ecosystem_reports_nothing(self, eco):
        build_pub(eco)
        build_sub(eco)
        assert check_ecosystem(eco) == []

    def test_detects_publication_shrink(self, eco):
        """A publisher silently un-publishing a field breaks subscribers —
        the check catches it before deployment does."""
        pub, User = build_pub(eco)
        sub, _ = build_sub(eco)
        # Simulate a bad redeploy: the publisher drops "email".
        models = eco.broker._publications["pub"]
        fields, mode = models["User"]
        models["User"] = ([f for f in fields if f != "email"], mode)
        problems = check_ecosystem(eco)
        assert len(problems) == 1
        assert "email" in problems[0]
