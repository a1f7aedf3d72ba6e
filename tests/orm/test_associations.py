"""Association tests across same-service models (possibly different engines)."""

import pytest

from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.errors import ORMError
from repro.orm import BelongsTo, Field, Model, bind_model
from repro.orm.associations import snake_case


def build_blog(db=None, registry=None):
    registry = registry if registry is not None else {}
    db = db or PostgresLike("blog")

    class User(Model):
        name = Field(str)

    class Post(Model):
        body = Field(str)
        author = BelongsTo("User")

    class Comment(Model):
        body = Field(str)
        post = BelongsTo("Post")
        author = BelongsTo("User")

    for cls in (User, Post, Comment):
        bind_model(cls, db, registry=registry)
    return User, Post, Comment


class TestSnakeCase:
    def test_basic(self):
        assert snake_case("User") == "user"
        assert snake_case("FriendShip") == "friend_ship"
        assert snake_case("ACLEntry") == "a_c_l_entry"


class TestBelongsTo:
    def test_foreign_key_field_created(self):
        User, Post, Comment = build_blog()
        assert "author_id" in Post.persisted_fields()

    def test_default_foreign_key_from_association_name(self):
        User, Post, Comment = build_blog()
        # Comment's ``post = BelongsTo("Post")`` -> post_id
        assert "post_id" in Comment.persisted_fields()

    def test_assign_and_resolve(self):
        User, Post, Comment = build_blog()
        ada = User.create(name="ada")
        post = Post(body="hi")
        post.author = ada
        post.save()
        assert post.author_id == ada.id
        assert Post.find(post.id).author.name == "ada"

    def test_assign_by_fk(self):
        User, Post, Comment = build_blog()
        ada = User.create(name="ada")
        post = Post.create(body="hi", author_id=ada.id)
        assert post.author == ada

    def test_none_when_unset(self):
        User, Post, Comment = build_blog()
        assert Post.create(body="hi").author is None

    def test_assign_none_clears(self):
        User, Post, Comment = build_blog()
        post = Post.create(body="hi", author_id=User.create(name="a").id)
        post.author = None
        assert post.author_id is None

    def test_unregistered_target_raises(self):
        class Orphan(Model):
            parent = BelongsTo("Missing")

        bind_model(Orphan, MongoLike("db"))
        orphan = Orphan()
        orphan.parent_id = 1
        with pytest.raises(ORMError):
            _ = orphan.parent


class TestCrossEngineAssociations:
    def test_models_on_different_engines_in_one_registry(self):
        registry = {}
        pg = PostgresLike("pg")
        mongo = MongoLike("mongo")

        class User(Model):
            name = Field(str)

        class Activity(Model):
            kind = Field(str)
            user = BelongsTo("User")

        bind_model(User, pg, registry=registry)
        bind_model(Activity, mongo, registry=registry)
        ada = User.create(name="ada")
        act = Activity.create(kind="login", user_id=ada.id)
        assert act.user.name == "ada"
