"""Unit tests for the Model base class (lifecycle, callbacks, guards)."""

import pytest

from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.errors import ORMError, ReadOnlyAttributeError, RecordNotFound
from repro.orm import (
    Field,
    Model,
    VirtualField,
    after_create,
    after_destroy,
    after_save,
    after_update,
    before_create,
    before_destroy,
    before_save,
    before_update,
    bind_model,
)


@pytest.fixture
def user_cls():
    class User(Model):
        name = Field(str)
        age = Field(int)
        tags = Field(list, default=list)

    bind_model(User, PostgresLike("db"))
    return User


class TestLifecycle:
    def test_create_assigns_id(self, user_cls):
        user = user_cls.create(name="ada", age=36)
        assert user.id == 1
        assert not user.new_record

    def test_save_new_then_update(self, user_cls):
        user = user_cls(name="ada")
        assert user.new_record
        user.save()
        user.age = 36
        user.save()
        assert user_cls.find(user.id).age == 36

    def test_update_helper(self, user_cls):
        user = user_cls.create(name="a")
        user.update(name="b", age=1)
        reloaded = user_cls.find(user.id)
        assert (reloaded.name, reloaded.age) == ("b", 1)

    def test_destroy(self, user_cls):
        user = user_cls.create(name="a")
        user.destroy()
        with pytest.raises(RecordNotFound):
            user_cls.find(user.id)

    def test_destroy_unsaved_rejected(self, user_cls):
        with pytest.raises(ORMError):
            user_cls(name="a").destroy()

    def test_defaults(self, user_cls):
        user = user_cls.create(name="a")
        assert user.tags == []
        other = user_cls.create(name="b")
        assert user.tags is not other.tags

    def test_unknown_attribute_rejected(self, user_cls):
        user = user_cls(name="a")
        with pytest.raises(ORMError):
            user.nope = 1
        with pytest.raises(ORMError):
            user_cls(nope=1)


class TestQueries:
    def test_find_by_and_where(self, user_cls):
        user_cls.create(name="a", age=1)
        user_cls.create(name="b", age=2)
        user_cls.create(name="b", age=3)
        assert user_cls.find_by(name="a").age == 1
        assert user_cls.find_by(name="zz") is None
        assert len(user_cls.where(name="b")) == 2
        assert user_cls.count() == 3
        assert user_cls.count(name="b") == 2
        assert len(user_cls.all()) == 3

    def test_where_order_and_limit(self, user_cls):
        for age in (3, 1, 2):
            user_cls.create(name="x", age=age)
        users = user_cls.where(_order_by=("age", "desc"), _limit=2)
        assert [u.age for u in users] == [3, 2]

    def test_find_or_initialize(self, user_cls):
        existing = user_cls.create(name="a")
        found = user_cls.find_or_initialize(existing.id)
        assert not found.new_record
        fresh = user_cls.find_or_initialize(999)
        assert fresh.new_record and fresh.id == 999

    def test_equality_by_identity(self, user_cls):
        a = user_cls.create(name="a")
        same = user_cls.find(a.id)
        assert a == same
        assert a != user_cls.create(name="b")
        assert user_cls(name="x") != user_cls(name="x")  # unsaved: no id


class TestCallbacks:
    def test_all_callbacks_fire_in_order(self):
        events = []

        class Audited(Model):
            name = Field(str)

            @before_save
            def bs(self):
                events.append("before_save")

            @after_save
            def as_(self):
                events.append("after_save")

            @before_create
            def bc(self):
                events.append("before_create")

            @after_create
            def ac(self):
                events.append("after_create")

            @before_update
            def bu(self):
                events.append("before_update")

            @after_update
            def au(self):
                events.append("after_update")

            @before_destroy
            def bd(self):
                events.append("before_destroy")

            @after_destroy
            def ad(self):
                events.append("after_destroy")

        bind_model(Audited, MongoLike("db"))
        record = Audited.create(name="a")
        assert events == ["before_save", "before_create", "after_create", "after_save"]
        events.clear()
        record.update(name="b")
        assert events == ["before_save", "before_update", "after_update", "after_save"]
        events.clear()
        record.destroy()
        assert events == ["before_destroy", "after_destroy"]

    def test_before_create_can_mutate(self):
        class Slugged(Model):
            title = Field(str)
            slug = Field(str)

            @before_create
            def derive_slug(self):
                self.slug = self.title.lower().replace(" ", "-")

        bind_model(Slugged, PostgresLike("db"))
        record = Slugged.create(title="Hello World")
        assert Slugged.find(record.id).slug == "hello-world"

    def test_callbacks_inherited(self):
        events = []

        class Base(Model):
            name = Field(str)

            @after_create
            def log(self):
                events.append(type(self).__name__)

        class Child(Base):
            pass

        bind_model(Child, MongoLike("db"))
        Child.create(name="x")
        assert events == ["Child"]

    def test_from_row_fires_no_callbacks(self):
        events = []

        class Watched(Model):
            name = Field(str)

            @after_create
            def log(self):
                events.append("create")

        bind_model(Watched, MongoLike("db"))
        Watched.create(name="a")
        events.clear()
        Watched.find_by(name="a")
        assert events == []


class TestTypeChain:
    def test_single_level(self, user_cls):
        assert user_cls.type_chain() == ["User"]

    def test_polymorphic_chain(self):
        class Animal(Model):
            name = Field(str)

        class Dog(Animal):
            pass

        bind_model(Dog, MongoLike("db"))
        assert Dog.type_chain() == ["Dog", "Animal"]

    def test_chain_is_walked_once_per_class_and_handed_out_fresh(self):
        class Mixin:
            pass

        class Animal(Model):
            name = Field(str)

        class Dog(Mixin, Animal):
            pass

        assert Model.type_chain() == []
        assert Animal._lineage == (Animal,)
        assert Dog._lineage == (Dog, Animal)  # its own entry, no mixin
        chain = Dog.type_chain()
        chain.append("written-into-a-message-body")
        assert Dog.type_chain() == ["Dog", "Animal"]
        assert Animal.type_chain() == ["Animal"]
        # ``Service.model(name=...)`` renames a class after creation.
        Animal.__name__ = "Creature"
        assert Dog.type_chain() == ["Dog", "Creature"]


class TestTableName:
    def test_computed_once_per_name(self, monkeypatch):
        import repro.orm.model as model_mod

        calls = []
        model_mod.table_for_type.cache_clear()
        monkeypatch.setattr(
            model_mod, "snake_case",
            lambda name: calls.append(name) or name.lower(),
        )

        class Zebra(Model):
            pass

        class Quagga(Zebra):
            pass

        for _ in range(3):
            assert Zebra.table_name() == "zebras"
            assert Quagga.table_name() == "quaggas"  # a subclass: its own
            assert model_mod.table_for_type("Zebra") == "zebras"
        assert calls == ["Zebra", "Quagga"]
        Quagga.__name__ = "Okapi"  # renamed by ``Service.model(name=...)``
        assert Quagga.table_name() == "okapis"
        assert Zebra.table_name() == "zebras"

    def test_irregular_plurals(self):
        from repro.orm.model import table_for_type

        assert table_for_type("ACLEntry") == "a_c_l_entries"
        assert table_for_type("Box") == "boxes"
        assert table_for_type("Day") == "days"


class TestReadOnlyGuard:
    def test_readonly_fields_rejected(self, user_cls):
        user_cls._readonly_fields = frozenset({"name"})
        try:
            user = user_cls.find_or_initialize(1)
            with pytest.raises(ReadOnlyAttributeError):
                user.name = "x"
            # The Synapse subscriber path can still write.
            with user_cls._suspend_readonly_guard():
                user.name = "x"
            assert user.name == "x"
        finally:
            user_cls._readonly_fields = frozenset()


class TestVirtualAttributes:
    def test_getter_setter_by_convention(self):
        class Profile(Model):
            raw = Field(str)
            shout = VirtualField()

            def shout_get(self):
                return (self.raw or "").upper()

            def shout_set(self, value):
                self.raw = value.lower()

        bind_model(Profile, MongoLike("db"))
        p = Profile(raw="hi")
        assert p.shout == "HI"
        p.shout = "YELL"
        assert p.raw == "yell"

    def test_missing_getter_raises(self):
        class Broken(Model):
            v = VirtualField()

        bind_model(Broken, MongoLike("db"))
        with pytest.raises(AttributeError):
            _ = Broken().v
        with pytest.raises(AttributeError):
            Broken().v = 1
