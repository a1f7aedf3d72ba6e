"""Unit tests for the relational engine."""

import pytest

from repro.databases.relational import (
    ALWAYS,
    Column,
    Index,
    Integer,
    Json,
    MySQLLike,
    PostgresLike,
    TableSchema,
    Text,
)
from repro.errors import (
    DuplicateKeyError,
    SchemaError,
    TransactionError,
    TypeMismatchError,
    UnknownColumnError,
    UnsupportedOperationError,
)
from repro.databases.relational.expression import where_from_dict


@pytest.fixture
def db():
    database = PostgresLike("testdb")
    database.create_table(
        TableSchema(
            "users",
            [
                Column("name", Text(), nullable=False),
                Column("age", Integer()),
                Column("tags", Json(), default=list),
            ],
            indexes=[Index("users_name", ["name"])],
        )
    )
    return database


class TestDDL:
    def test_create_duplicate_table_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_table(TableSchema("users", []))

    def test_add_column_backfills_default(self, db):
        db.insert("users", {"name": "ada"})
        db.add_column("users", Column("city", Text(), default="nyc"))
        rows = db.select("users")
        assert rows[0]["city"] == "nyc"

    def test_drop_column_removes_data_and_dependent_indexes(self, db):
        db.insert("users", {"name": "ada"})
        db.drop_column("users", "name")
        assert "name" not in db.select("users")[0]
        assert "users_name" not in db._storage("users").schema.indexes

    def test_cannot_drop_primary_key(self, db):
        with pytest.raises(SchemaError):
            db.drop_column("users", "id")


class TestCRUD:
    def test_insert_assigns_sequential_ids(self, db):
        r1 = db.insert("users", {"name": "a"}, returning=True)
        r2 = db.insert("users", {"name": "b"}, returning=True)
        assert (r1["id"], r2["id"]) == (1, 2)

    def test_insert_honours_explicit_id_and_advances_sequence(self, db):
        db.insert("users", {"id": 10, "name": "a"})
        row = db.insert("users", {"name": "b"}, returning=True)
        assert row["id"] == 11

    def test_insert_duplicate_pk_rejected(self, db):
        db.insert("users", {"id": 1, "name": "a"})
        with pytest.raises(DuplicateKeyError):
            db.insert("users", {"id": 1, "name": "b"})

    def test_insert_validates_types(self, db):
        with pytest.raises(TypeMismatchError):
            db.insert("users", {"name": "a", "age": "not-a-number"})

    def test_insert_rejects_unknown_columns(self, db):
        with pytest.raises(UnknownColumnError):
            db.insert("users", {"name": "a", "nope": 1})

    def test_not_null_enforced(self, db):
        with pytest.raises(TypeMismatchError):
            db.insert("users", {"age": 3})

    def test_callable_default_per_row(self, db):
        a = db.insert("users", {"name": "a"}, returning=True)
        b = db.insert("users", {"name": "b"}, returning=True)
        a["tags"].append("x")
        assert b["tags"] == []

    def test_update_with_returning(self, db):
        db.insert("users", {"name": "a", "age": 1})
        updated = db.update(
            "users", where_from_dict({"name": "a"}), {"age": 2}, returning=True
        )
        assert updated[0]["age"] == 2

    def test_update_without_returning_counts(self, db):
        db.insert("users", {"name": "a"})
        db.insert("users", {"name": "a"})
        assert db.update("users", where_from_dict({"name": "a"}), {"age": 5}) == 2

    def test_update_cannot_change_pk(self, db):
        db.insert("users", {"name": "a"})
        db.update("users", ALWAYS, {"id": 99, "age": 2}, returning=False)
        assert db.select("users")[0]["id"] == 1

    def test_delete(self, db):
        db.insert("users", {"name": "a"})
        deleted = db.delete("users", where_from_dict({"name": "a"}), returning=True)
        assert deleted[0]["name"] == "a"
        assert db.count("users") == 0

    def test_get_point_lookup(self, db):
        row = db.insert("users", {"name": "a"}, returning=True)
        assert db.get("users", row["id"])["name"] == "a"
        assert db.get("users", 999) is None

    def test_rows_returned_are_copies(self, db):
        db.insert("users", {"name": "a"})
        row = db.select("users")[0]
        row["name"] = "mutated"
        assert db.select("users")[0]["name"] == "a"


class TestQueries:
    def test_where_expressions(self, db):
        for name, age in [("a", 10), ("b", 20), ("a", 30)]:
            db.insert("users", {"name": name, "age": age})
        assert len(db.select("users", where=where_from_dict({"name": "a"}))) == 2
        both = where_from_dict({"name": "a", "age": 30})
        assert [r["age"] for r in db.select("users", where=both)] == [30]
        assert db.select("users", where=where_from_dict({"name": "z"})) == []
        # No truth value: ``and``/``or`` fail loudly rather than dropping
        # a predicate.
        with pytest.raises(TypeError):
            where_from_dict({"name": "a"}) and where_from_dict({"age": 10})

    def test_null_semantics(self, db):
        db.insert("users", {"name": "a", "age": None})
        db.insert("users", {"name": "b", "age": 5})
        # NULL equals only NULL; a missing column reads as NULL.
        rows = db.select("users", where=where_from_dict({"age": None}))
        assert [r["name"] for r in rows] == ["a"]
        assert len(db.select("users", where=where_from_dict({"age": 5}))) == 1

    def test_order_limit_offset(self, db):
        for age in [30, 10, 20]:
            db.insert("users", {"name": "u", "age": age})
        rows = db.select("users", order_by=("age", "desc"), limit=2)
        assert [r["age"] for r in rows] == [30, 20]
        rows = db.select("users", order_by=("age", "asc"))
        assert [r["age"] for r in rows] == [10, 20, 30]
        assert len(db.select("users", limit=10)) == 3

    def test_index_used_for_equality(self, db):
        db.insert("users", {"name": "a"})
        db.stats.reset()
        db.select("users", where=where_from_dict({"name": "a"}))
        assert db.stats.index_lookups == 1
        assert db.stats.scans == 0

    def test_scan_used_without_index(self, db):
        db.insert("users", {"name": "a", "age": 3})
        db.stats.reset()
        db.select("users", where=where_from_dict({"age": 3}))
        assert db.stats.scans == 1

    def test_pk_lookup_in_where(self, db):
        row = db.insert("users", {"name": "a"}, returning=True)
        db.stats.reset()
        rows = db.select("users", where=where_from_dict({"id": row["id"]}))
        assert len(rows) == 1
        assert db.stats.scans == 0

    def test_unique_index(self, db):
        db.create_table(TableSchema(
            "handles", [Column("name", Text())],
            indexes=[Index("uniq_name", ["name"], unique=True)],
        ))
        db.insert("handles", {"name": "a"})
        with pytest.raises(DuplicateKeyError):
            db.insert("handles", {"name": "a"})


class TestTransactions:
    def test_commit_applies(self, db):
        with db.begin():
            db.insert("users", {"name": "a"})
        assert db.count("users") == 1

    def test_rollback_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.begin():
                db.insert("users", {"name": "a"})
                raise RuntimeError("boom")
        assert db.count("users") == 0

    def test_rollback_restores_updates_and_deletes(self, db):
        db.insert("users", {"name": "a", "age": 1})
        db.insert("users", {"name": "b", "age": 2})
        txn = db.begin()
        db.update("users", where_from_dict({"name": "a"}), {"age": 99})
        db.delete("users", where_from_dict({"name": "b"}))
        txn.rollback()
        rows = {r["name"]: r["age"] for r in db.select("users")}
        assert rows == {"a": 1, "b": 2}

    def test_written_rows_recorded_in_order(self, db):
        txn = db.begin()
        db.insert("users", {"name": "a"})
        db.update("users", where_from_dict({"name": "a"}), {"age": 5})
        assert [entry[0] for entry in txn.undo_log] == ["insert", "replace"]
        txn.commit()

    def test_prepare_hook_failure_aborts(self, db):
        txn = db.begin()
        db.insert("users", {"name": "a"})
        txn.on_prepare.append(lambda t: (_ for _ in ()).throw(RuntimeError("nope")))
        with pytest.raises(RuntimeError):
            txn.commit()
        assert db.count("users") == 0

    def test_commit_hooks_fire_after_commit(self, db):
        fired = []
        txn = db.begin()
        db.insert("users", {"name": "a"})
        txn.on_commit.append(lambda t: fired.append(db.count("users")))
        txn.commit()
        assert fired == [1]

    def test_nested_transactions_rejected(self, db):
        with db.begin():
            with pytest.raises(TransactionError):
                db.begin()

    def test_double_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.rollback()


class TestVariants:
    def test_mysql_has_no_returning(self):
        db = MySQLLike("m")
        db.create_table(TableSchema("t", [Column("x", Integer())]))
        with pytest.raises(UnsupportedOperationError):
            db.insert("t", {"x": 1}, returning=True)
        db.insert("t", {"x": 1})
        assert db.count("t") == 1

    def test_engine_families(self):
        assert PostgresLike("p").supports_returning
        assert not MySQLLike("m").supports_returning
