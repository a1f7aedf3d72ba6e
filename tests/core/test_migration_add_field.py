"""LiveMigrator.add_field: live attribute addition on every engine kind."""

import pytest

from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber
from repro.core.migration import LiveMigrator
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.errors import MigrationError
from repro.orm import Field, Model


def build(eco, db):
    pub = eco.service("pub", database=db)

    @pub.model(publish=["name"])
    class User(Model):
        name = Field(str)

    return pub, User


class TestAddField:
    def test_add_field_on_relational_creates_column(self):
        eco = Ecosystem()
        pub, User = build(eco, PostgresLike("pg"))
        User.create(name="before")
        LiveMigrator(pub).add_field(User, "level", int, default=0)
        # Existing rows get the default; new rows persist the field.
        assert User.all()[0].level == 0
        user = User.create(name="after", level=7)
        assert User.find(user.id).level == 7

    def test_add_field_on_schemaless_engine(self):
        eco = Ecosystem()
        pub, User = build(eco, MongoLike("m"))
        User.create(name="before")
        LiveMigrator(pub).add_field(User, "level", int)
        user = User.create(name="after", level=3)
        assert User.find(user.id).level == 3

    def test_duplicate_field_rejected(self):
        eco = Ecosystem()
        pub, User = build(eco, MongoLike("m"))
        with pytest.raises(MigrationError):
            LiveMigrator(pub).add_field(User, "name", str)

    def test_full_evolution_cycle(self):
        """The §4.3 rule-3 deployment dance, end to end: publisher adds +
        publishes the field, subscriber widens, partial bootstrap
        back-fills."""
        eco = Ecosystem()
        pub, User = build(eco, PostgresLike("pg"))
        sub = eco.service("sub", database=MongoLike("sub-db"))

        @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="User")
        class SubUser(Model):
            name = Field(str)
            level = Field(int)

        User.create(name="ada")
        sub.subscriber.drain()

        migrator = LiveMigrator(pub)
        migrator.add_field(User, "level", int, default=1)
        migrator.publish_new_attribute(User, "level")
        sub.subscriber.specs[("pub", "User")].fields["level"] = "level"
        bootstrap_subscriber(sub, scope={("pub", "User"): None})
        assert SubUser.all()[0].level == 1
