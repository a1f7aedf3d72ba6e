"""Replica digests: map comparison, wire form, cross-engine hashing."""

import json

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.databases.search import ElasticsearchLike
from repro.orm import Field, Model
from repro.repair.digest import (
    ModelDigest,
    publisher_model_digest,
    row_digest,
    subscriber_model_digest,
)


class TestRowDigest:
    def test_same_projection_same_digest(self):
        assert row_digest({"a": 1, "b": "x"}) == row_digest({"b": "x", "a": 1})

    def test_different_values_differ(self):
        assert row_digest({"a": 1}) != row_digest({"a": 2})

    def test_engine_representation_normalised(self):
        # Engines may hand back tuples vs lists; JSON canonicalisation
        # makes them hash identically.
        assert row_digest({"tags": (1, 2)}) == row_digest({"tags": [1, 2]})


def digest(objects, fields=("a",)):
    return ModelDigest("app", "Doc", list(fields), dict(objects))


class TestDigestDiff:
    def test_equal_contents_in_any_order(self):
        a = digest({i: f"h{i}" for i in range(100)})
        b = digest({i: f"h{i}" for i in reversed(range(100))})
        assert a.objects == b.objects
        assert a.divergent_ids(b) == []

    def test_diff_finds_changed_missing_and_extra(self):
        a = digest({1: "a", 2: "b", 3: "c"})
        b = digest({1: "a", 2: "X", 4: "d"})
        assert sorted(a.divergent_ids(b)) == [2, 3, 4]

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError):
            digest({1: "a"}, ["a"]).divergent_ids(digest({1: "a"}, ["b"]))

    def test_ids_keep_their_type_over_the_wire(self):
        rebuilt = ModelDigest.from_dict(
            json.loads(json.dumps(digest({1: "a", "doc-9": "b"}).to_dict()))
        )
        assert 1 in rebuilt.objects
        assert "doc-9" in rebuilt.objects
        assert "1" not in rebuilt.objects
        assert 2 not in rebuilt.objects

    def test_empty_digests_are_equal(self):
        assert digest({}).divergent_ids(digest({})) == []


class TestModelDigests:
    """Digests built through real engines must agree across engines."""

    def _ecosystem(self, sub_db):
        eco = Ecosystem()
        eco.service("sub", database=sub_db)
        _, pub, sub, _ = build_replicated_pair(eco, {"name": str, "score": int}, "User")
        return eco, pub, sub

    @pytest.mark.parametrize("sub_db_factory", [
        lambda: PostgresLike("sub-pg"),
        lambda: ElasticsearchLike("sub-es"),
        lambda: MongoLike("sub-mongo"),
    ])
    def test_heterogeneous_replicas_hash_identically(self, sub_db_factory):
        eco, pub, sub = self._ecosystem(sub_db_factory())
        User = pub.registry["User"]
        for i in range(10):
            User.create(name=f"u{i}", score=i)
        sub.subscriber.drain()
        spec = sub.subscriber.specs[("pub", "User")]
        pub_digest = publisher_model_digest(pub, "User",
                                            remote_fields=list(spec.fields))
        sub_digest = subscriber_model_digest(sub, spec)
        assert pub_digest.objects == sub_digest.objects
        assert pub_digest.divergent_ids(sub_digest) == []

    def test_local_mutation_changes_subscriber_digest(self):
        eco, pub, sub = self._ecosystem(PostgresLike("sub-pg"))
        User = pub.registry["User"]
        user = User.create(name="a", score=1)
        sub.subscriber.drain()
        spec = sub.subscriber.specs[("pub", "User")]
        # Corrupt the subscriber replica behind Synapse's back.
        sub.registry["User"].__mapper__._do_update(user.id, {"score": 999})
        pub_digest = publisher_model_digest(pub, "User",
                                            remote_fields=list(spec.fields))
        sub_digest = subscriber_model_digest(sub, spec)
        assert pub_digest.objects != sub_digest.objects
        assert pub_digest.divergent_ids(sub_digest) == [user.id]

    def test_renamed_fields_hash_against_remote_names(self):
        """`fields: {remote: local}` subscriptions compare on the
        publisher-side attribute names."""
        eco = Ecosystem()
        pub = eco.service("pub", database=MongoLike("pub-db"))

        @pub.model(publish=["name"], name="User")
        class User(Model):
            name = Field(str)

        sub = eco.service("sub", database=PostgresLike("sub-db"))

        @sub.model(subscribe={"from": "pub", "fields": {"name": "title"}},
                   name="User")
        class SubUser(Model):
            title = Field(str)

        User.create(name="ada")
        sub.subscriber.drain()
        spec = sub.subscriber.specs[("pub", "User")]
        pub_digest = publisher_model_digest(pub, "User",
                                            remote_fields=list(spec.fields))
        sub_digest = subscriber_model_digest(sub, spec)
        assert pub_digest.fields == sub_digest.fields == ["name"]
        assert pub_digest.objects == sub_digest.objects

    def test_observer_has_no_digest(self):
        eco = Ecosystem()
        pub = eco.service("pub", database=MongoLike("pub-db"))

        @pub.model(publish=["name"], name="User")
        class User(Model):
            name = Field(str)

        sub = eco.service("sub")

        @sub.model(subscribe={"from": "pub", "fields": ["name"]},
                   observer=True, name="User")
        class SubUser(Model):
            name = Field(str)

        spec = sub.subscriber.specs[("pub", "User")]
        assert subscriber_model_digest(sub, spec) is None
