"""Unit tests for the document engine and its filter language."""

import pytest

from repro.databases.document import MongoLike, TokuMXLike, matches_filter
from repro.databases.document.filters import apply_update, get_path, set_path
from repro.errors import DatabaseError, DuplicateKeyError, UnsupportedOperationError


@pytest.fixture
def db():
    return MongoLike("mongo")


class TestFilters:
    def test_equality_and_dot_paths(self):
        doc = {"a": 1, "b": {"c": 2}}
        assert matches_filter(doc, {"a": 1})
        assert matches_filter(doc, {"b.c": 2})
        assert not matches_filter(doc, {"b.c": 3})
        assert not matches_filter(doc, {"missing": 1})
        assert matches_filter(doc, {"missing": None})

    def test_comparison_operators(self):
        doc = {"n": 5, "s": "hello"}
        assert matches_filter(doc, {"n": {"$gt": 4}})
        assert matches_filter(doc, {"n": {"$gte": 5, "$lte": 5}})
        assert not matches_filter(doc, {"n": {"$lt": 5}})
        assert matches_filter(doc, {"n": {"$ne": 4}})
        assert matches_filter(doc, {"n": {"$in": [5, 6]}})
        assert matches_filter(doc, {"n": {"$nin": [1, 2]}})
        assert matches_filter(doc, {"s": {"$regex": "^hel"}})

    def test_exists(self):
        doc = {"a": 1}
        assert matches_filter(doc, {"a": {"$exists": True}})
        assert matches_filter(doc, {"b": {"$exists": False}})
        assert not matches_filter(doc, {"b": {"$exists": True}})

    def test_array_membership_semantics(self):
        doc = {"tags": ["cats", "dogs"]}
        assert matches_filter(doc, {"tags": "cats"})
        assert matches_filter(doc, {"tags": {"$in": ["dogs", "fish"]}})
        assert matches_filter(doc, {"tags": {"$all": ["cats", "dogs"]}})
        assert not matches_filter(doc, {"tags": {"$all": ["cats", "fish"]}})
        assert matches_filter(doc, {"tags": {"$size": 2}})

    def test_logical_operators(self):
        doc = {"a": 1, "b": 2}
        assert matches_filter(doc, {"$or": [{"a": 9}, {"b": 2}]})
        assert matches_filter(doc, {"$and": [{"a": 1}, {"b": 2}]})
        assert matches_filter(doc, {"$nor": [{"a": 9}, {"b": 9}]})
        assert not matches_filter(doc, {"$or": [{"a": 9}, {"b": 9}]})

    def test_mixed_type_ordering_never_matches(self):
        assert not matches_filter({"a": "x"}, {"a": {"$gt": 1}})


class TestPathHelpers:
    def test_get_set_nested(self):
        doc = {}
        set_path(doc, "a.b.c", 1)
        assert doc == {"a": {"b": {"c": 1}}}
        assert get_path(doc, "a.b.c") == 1

    def test_get_array_index(self):
        assert get_path({"xs": [10, 20]}, "xs.1") == 20


class TestUpdates:
    def test_replacement_preserves_id(self):
        out = apply_update({"_id": 1, "a": 1}, {"b": 2})
        assert out == {"_id": 1, "b": 2}

    def test_set_unset_inc(self):
        doc = {"_id": 1, "a": 1, "b": {"c": 3}}
        out = apply_update(doc, {"$set": {"b.c": 9}, "$inc": {"n": 2}})
        assert out["b"]["c"] == 9
        assert out["n"] == 2
        # original untouched
        assert doc["b"]["c"] == 3
        # $unset is not an operator this engine knows
        with pytest.raises(DatabaseError):
            apply_update(doc, {"$unset": {"a": 1}})

    def test_push_pull_add_to_set(self):
        doc = {"_id": 1, "tags": ["a"]}
        out = apply_update(doc, {"$push": {"tags": "b"}})
        assert out["tags"] == ["a", "b"]
        out = apply_update(out, {"$pull": {"tags": "a"}})
        assert out["tags"] == ["b"]
        out = apply_update(out, {"$addToSet": {"tags": "b"}})
        assert out["tags"] == ["b"]


class TestEngine:
    def test_insert_assigns_ids(self, db):
        d1 = db.insert_one("users", {"name": "a"})
        d2 = db.insert_one("users", {"name": "b"})
        assert (d1["_id"], d2["_id"]) == (1, 2)

    def test_insert_duplicate_id_rejected(self, db):
        db.insert_one("users", {"_id": 1})
        with pytest.raises(DuplicateKeyError):
            db.insert_one("users", {"_id": 1})

    def test_schemaless_documents(self, db):
        db.insert_one("users", {"name": "a", "interests": ["cats", "dogs"]})
        db.insert_one("users", {"name": "b", "address": {"city": "nyc"}})
        assert db.count("users") == 2
        assert db.find("users", {"address.city": "nyc"})[0]["name"] == "b"

    def test_find_sort_limit_projection(self, db):
        for age in [3, 1, 2]:
            db.insert_one("users", {"age": age, "x": "y"})
        docs = db.find("users", sort=("age", -1), limit=2)
        assert [d["age"] for d in docs] == [3, 2]
        docs = db.find("users", projection=["age"])
        assert set(docs[0]) == {"_id", "age"}

    def test_update_one_returns_new_doc(self, db):
        db.insert_one("users", {"name": "a", "n": 1})
        out = db.update_one("users", {"name": "a"}, {"$inc": {"n": 1}})
        assert out["n"] == 2
        assert db.update_one("users", {"name": "zzz"}, {"$set": {"n": 0}}) is None

    def test_delete(self, db):
        db.insert_one("users", {"name": "a"})
        removed = db.delete_one("users", {"name": "a"})
        assert removed["name"] == "a"
        assert db.count("users") == 0
        assert db.delete_one("users", {"name": "a"}) is None

    def test_documents_are_isolated_copies(self, db):
        db.insert_one("users", {"tags": ["a"]})
        (doc,) = db.find("users")
        doc["tags"].append("b")
        assert db.find("users")[0]["tags"] == ["a"]

    def test_index_point_lookup(self, db):
        db.create_index("users", "name")
        db.insert_one("users", {"name": "a"})
        db.insert_one("users", {"name": "b"})
        db.stats.reset()
        assert db.find("users", {"name": "b"})[0]["name"] == "b"
        assert db.stats.index_lookups == 1
        assert db.stats.scans == 0

    def test_index_created_after_data(self, db):
        db.insert_one("users", {"name": "a"})
        db.create_index("users", "name")
        db.stats.reset()
        assert db.find("users", {"name": "a"})
        assert db.stats.index_lookups == 1

    def test_id_lookup_uses_pk(self, db):
        doc = db.insert_one("users", {"name": "a"})
        db.stats.reset()
        assert db.get("users", doc["_id"])["name"] == "a"
        assert db.stats.scans == 0


class TestTransactions:
    def test_mongo_rejects_transactions(self, db):
        with pytest.raises(UnsupportedOperationError):
            db.begin()

    def test_tokumx_commit_and_rollback(self):
        db = TokuMXLike("toku")
        with db.begin():
            db.insert_one("users", {"name": "a"})
        assert db.count("users") == 1
        with pytest.raises(RuntimeError):
            with db.begin():
                db.insert_one("users", {"name": "b"})
                db.update_one("users", {"name": "a"}, {"$set": {"name": "z"}})
                raise RuntimeError("boom")
        assert db.count("users") == 1
        assert db.find("users")[0]["name"] == "a"

    def test_tokumx_rollback_restores_a_deleted_document(self):
        db = TokuMXLike("toku")
        db.create_index("users", "name")
        db.insert_one("users", {"name": "a", "n": 1})
        with pytest.raises(RuntimeError):
            with db.begin():
                assert db.delete_one("users", {"name": "a"})["n"] == 1
                assert db.count("users") == 0
                raise RuntimeError("boom")
        assert db.find("users") == [{"_id": 1, "name": "a", "n": 1}]
        db.stats.reset()
        assert db.find("users", {"name": "a"})[0]["n"] == 1
        assert (db.stats.index_lookups, db.stats.scans) == (1, 0)
