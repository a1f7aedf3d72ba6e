"""Unit tests for the document engine and its filter language."""

import re

import pytest

from repro.databases.document import MongoLike, TokuMXLike
from repro.databases.document import engine as engine_module
from repro.databases.document.filters import get_path, matches_filter, set_path
from repro.errors import DatabaseError, DuplicateKeyError, UnsupportedOperationError
from repro.orm.engine_mappers import DocumentMapper


@pytest.fixture
def db():
    return MongoLike("mongo")


def rejected(db, query, operator):
    """The engine refuses ``query``, naming ``operator``, rather than
    reading it as an equality that matches nothing."""
    with pytest.raises(DatabaseError, match=re.escape(repr(operator))):
        db.find("c", query)


class TestFilters:
    def test_equality_and_dot_paths(self):
        doc = {"a": 1, "b": {"c": 2}}
        assert matches_filter(doc, {"a": 1})
        assert matches_filter(doc, {"b.c": 2})
        assert not matches_filter(doc, {"b.c": 3})
        assert not matches_filter(doc, {"missing": 1})
        assert matches_filter(doc, {"missing": None})

    def test_comparison_operators(self, db):
        db.insert_one("c", {"n": 5, "s": "hello"})
        for op in ("$gt", "$gte", "$lt", "$lte", "$ne", "$in", "$nin"):
            rejected(db, {"n": {op: 4}}, op)
        rejected(db, {"s": {"$regex": "^hel"}}, "$regex")
        # An operator beside a literal key in one condition is refused too.
        rejected(db, {"n": {"x": 1, "$lt": 9}}, "$lt")

    def test_exists(self, db):
        db.insert_one("c", {"a": 1})
        assert matches_filter({"a": 1}, {"b": None})
        assert not matches_filter({"a": 1}, {"a": None})
        rejected(db, {"b": {"$exists": False}}, "$exists")

    def test_array_membership_semantics(self, db):
        doc = {"tags": ["cats", "dogs"]}
        assert matches_filter(doc, {"tags": "cats"})
        assert not matches_filter(doc, {"tags": "fish"})
        assert matches_filter(doc, {"tags": ["cats", "dogs"]})
        for op in ("$in", "$all", "$size", "$elemMatch"):
            rejected(db, {"tags": {op: ["dogs"]}}, op)

    def test_logical_operators(self, db):
        db.insert_one("c", {"a": 1, "b": 2})
        for op in ("$or", "$and", "$nor"):
            rejected(db, {op: [{"a": 1}, {"b": 2}]}, op)

    def test_mixed_type_ordering_never_matches(self, db):
        """An ordering the engine cannot evaluate is refused: it is
        never read as an equality that quietly matches nothing."""
        db.insert_one("c", {"a": "x"})
        rejected(db, {"a": {"$gt": 1}}, "$gt")
        assert not matches_filter({"a": "x"}, {"a": 1})


class TestPathHelpers:
    def test_get_set_nested(self):
        doc = {}
        set_path(doc, "a.b.c", 1)
        assert doc == {"a": {"b": {"c": 1}}}
        assert get_path(doc, "a.b.c") == 1

    def test_get_array_index(self):
        assert get_path({"xs": [10, 20]}, "xs.1") == 20


class TestUpdates:
    def test_replacement_preserves_id(self, db):
        """A whole-document replacement is refused, so the stored
        document keeps its ``_id`` and its fields."""
        db.insert_one("c", {"a": 1})
        with pytest.raises(DatabaseError, match="'b'"):
            db.update_one("c", {"_id": 1}, {"b": 2})
        assert db.find("c") == [{"_id": 1, "a": 1}]

    def test_set_unset_inc(self, db):
        db.insert_one("c", {"a": 1, "b": {"c": 3}})
        out = db.update_one("c", {"_id": 1}, {"$set": {"b.c": 9, "n": 2}})
        assert out == {"_id": 1, "a": 1, "b": {"c": 9}, "n": 2}
        # $set is the one operator: the others are refused by name,
        # also beside a $set and also when nothing matches.
        for update in ({"$unset": {"a": 1}}, {"$set": {"a": 0}, "$inc": {"n": 2}}):
            with pytest.raises(DatabaseError, match=re.escape(repr(list(update)[-1]))):
                db.update_one("c", {"_id": 1}, update)
        with pytest.raises(DatabaseError, match=r"'\$inc'"):
            db.update_one("c", {"_id": 99}, {"$inc": {"n": 1}})
        assert db.get("c", 1) == out

    def test_push_pull_add_to_set(self, db):
        db.insert_one("c", {"tags": ["a"]})
        for op in ("$push", "$pull", "$addToSet"):
            with pytest.raises(DatabaseError, match=re.escape(repr(op))):
                db.update_one("c", {"_id": 1}, {op: {"tags": "b"}})
        assert db.get("c", 1)["tags"] == ["a"]


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
        assert [d["age"] for d in db.find("users", sort=("age", 1))] == [1, 2, 3]

    def test_update_one_returns_new_doc(self, db):
        db.insert_one("users", {"name": "a", "n": 1})
        out = db.update_one("users", {"name": "a"}, {"$set": {"n": 2}})
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

    @pytest.mark.parametrize("call", ["find", "insert", "update", "delete", "where"])
    def test_mapper_rows_are_private(self, call):
        """Every row the mapper hands back, whose ``_id`` it renames in
        place, is a copy: mutating a top-level or a nested value of it
        leaves the stored document (or, for a delete, the undo image a
        rollback restores) as it was."""
        db = TokuMXLike("toku")
        mapper = DocumentMapper(db)
        mapper.table = "users"
        db.insert_one("users", {"name": "a", "tags": ["x"], "address": {"city": "nyc"}})
        stored = db.find("users")
        with pytest.raises(RuntimeError):
            with db.begin():
                row = {
                    "find": lambda: mapper._do_find(1),
                    "insert": lambda: mapper._do_insert(
                        {"id": 2, "tags": ["y"], "address": {"city": "sf"}}
                    ),
                    "update": lambda: mapper._do_update(1, {"name": "b"}),
                    "delete": lambda: mapper._do_delete(1),
                    "where": lambda: mapper._do_where({"name": "a"}, None, None)[0],
                }[call]()
                before = db.find("users")
                row["name"] = "mutated"
                row["tags"].append("mutated")
                row["address"]["city"] = "mutated"
                assert db.find("users") == before
                raise RuntimeError("roll back")
        assert db.find("users") == stored

    def test_mapper_update_renames_the_engines_copy(self, db, monkeypatch):
        """A by-id update takes two copies (the new stored version, the
        returned one); the mapper renames the returned one in place."""
        mapper = DocumentMapper(db)
        mapper.table = "users"
        db.insert_one("users", {"name": "a", "address": {"city": "nyc"}})
        copies = []
        real = engine_module._deep_copy
        monkeypatch.setattr(
            engine_module, "_deep_copy", lambda value: copies.append(1) or real(value)
        )
        returned = []
        update_one = db.update_one
        monkeypatch.setattr(
            db, "update_one", lambda *a: returned.append(update_one(*a)) or returned[0]
        )
        row = mapper._do_update(1, {"id": 1, "name": "b"})
        assert row is returned[0]
        assert row == {"id": 1, "name": "b", "address": {"city": "nyc"}}
        assert len(copies) == 2

    def test_set_values_do_not_alias_the_store(self, db):
        """The ``$set`` values are copied into the store: a caller that
        mutates its list after the update does not reach the document."""
        db.insert_one("users", {"name": "a"})
        tags = ["x"]
        out = db.update_one("users", {"_id": 1}, {"$set": {"tags": tags, "a.b": tags}})
        tags.append("y")
        out["name"] = "z"
        assert db.get("users", 1) == {"_id": 1, "name": "a", "tags": ["x"], "a": {"b": ["x"]}}

    def test_find_copies_only_what_it_returns(self, db, monkeypatch):
        for n in range(10):
            db.insert_one("users", {"n": n})
        copies = []
        real = engine_module._deep_copy
        monkeypatch.setattr(
            engine_module, "_deep_copy", lambda value: copies.append(1) or real(value)
        )
        assert db.find("users", sort=("n", -1), limit=1) == [{"_id": 10, "n": 9}]
        assert len(copies) == 1

    def test_id_only_filter_skips_the_filter_walk(self, db, monkeypatch):
        """An ``_id``-only filter is a dict lookup: no operator check and
        no match walk. Beside another condition both still run, and an
        operator under ``_id`` is still refused."""
        db.insert_one("users", {"name": "a"})
        calls = []
        for name in ("check_filter", "matches_filter"):
            real = getattr(engine_module, name)
            monkeypatch.setattr(
                engine_module, name,
                lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a),
            )
        assert db.update_one("users", {"_id": 1}, {"$set": {"n": 1}})["n"] == 1
        assert db.find("users", {"_id": 1})[0]["n"] == 1
        assert db.delete_one("users", {"_id": 2}) is None
        assert calls == []
        assert db.find("users", {"_id": 1, "name": "b"}) == []
        assert calls == ["check_filter", "matches_filter"]
        rejected(db, {"_id": {"$gt": 0}}, "$gt")
        rejected(db, {"_id": 1, "$or": []}, "$or")

    def test_index_point_lookup(self, db):
        """A filter on ``_id`` is a point lookup, also beside other
        conditions, for reads and for writes; any other filter scans."""
        db.insert_one("users", {"name": "a"})
        db.insert_one("users", {"name": "b"})
        db.stats.reset()
        assert db.find("users", {"_id": 2})[0]["name"] == "b"
        assert db.find("users", {"_id": 2, "name": "a"}) == []
        assert db.update_one("users", {"_id": 1}, {"$set": {"n": 1}})["n"] == 1
        assert (db.stats.index_lookups, db.stats.scans) == (3, 0)
        assert db.find("users", {"name": "b"})[0]["_id"] == 2
        assert (db.stats.index_lookups, db.stats.scans) == (3, 1)

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

    def test_tokumx_rollback_of_a_nested_set_restores_the_exact_document(self):
        db = TokuMXLike("toku")
        db.insert_one("users", {"name": "a", "a": {"b": 1, "c": [1, 2]}})
        prior = db.find("users")
        with pytest.raises(RuntimeError):
            with db.begin():
                out = db.update_one("users", {"_id": 1}, {"$set": {"a.b": 2, "a.d": 3}})
                assert out["a"] == {"b": 2, "c": [1, 2], "d": 3}
                out["a"]["c"].append(3)
                raise RuntimeError("boom")
        assert db.find("users") == prior == [
            {"_id": 1, "name": "a", "a": {"b": 1, "c": [1, 2]}}
        ]

    def test_tokumx_rollback_restores_a_deleted_document(self):
        db = TokuMXLike("toku")
        db.insert_one("users", {"name": "a", "n": 1})
        with pytest.raises(RuntimeError):
            with db.begin():
                assert db.delete_one("users", {"name": "a"})["n"] == 1
                assert db.count("users") == 0
                raise RuntimeError("boom")
        assert db.find("users") == [{"_id": 1, "name": "a", "n": 1}]
        db.stats.reset()
        assert db.find("users", {"_id": 1})[0]["n"] == 1
        assert (db.stats.index_lookups, db.stats.scans) == (1, 0)
