"""Composite-index planning, and the document engine's refusal of
``$elemMatch``."""

import pytest

from repro.databases.document import MongoLike
from repro.databases.relational import (
    Column,
    Index,
    Integer,
    PostgresLike,
    TableSchema,
    Text,
)
from repro.databases.relational.expression import where_from_dict
from repro.errors import DatabaseError


def planned_index(db, table, where):
    """Run ``select`` and return the name of the index it read (None for
    a primary-key lookup or a scan)."""
    storage = db._storage(table)
    read = []
    lookup = storage.ids_for_index_key
    storage.ids_for_index_key = lambda name, key: read.append(name) or lookup(name, key)
    try:
        db.select(table, where=where)
    finally:
        del storage.ids_for_index_key
    return read[0] if read else None


class TestCompositeIndexPlanning:
    @pytest.fixture
    def db(self):
        database = PostgresLike("pg")
        database.create_table(
            TableSchema(
                "events",
                [
                    Column("tenant", Text()),
                    Column("kind", Text()),
                    Column("n", Integer()),
                ],
                indexes=[
                    Index("by_tenant", ["tenant"]),
                    Index("by_tenant_kind", ["tenant", "kind"]),
                ],
            )
        )
        for tenant in ("acme", "globex"):
            for kind in ("click", "view"):
                for n in range(3):
                    database.insert(
                        "events", {"tenant": tenant, "kind": kind, "n": n}
                    )
        return database

    def test_widest_index_chosen(self, db):
        where = where_from_dict({"tenant": "acme", "kind": "click"})
        assert planned_index(db, "events", where) == "by_tenant_kind"

    def test_falls_back_to_narrower_index(self, db):
        assert planned_index(db, "events", where_from_dict({"tenant": "acme"})) == "by_tenant"

    def test_composite_results_match_scan(self, db):
        where = where_from_dict({"tenant": "acme", "kind": "click"})
        db.stats.reset()
        indexed = db.select("events", where=where)
        assert db.stats.index_lookups == 1 and db.stats.scans == 0
        expected = [
            r for r in db.select("events")
            if r["tenant"] == "acme" and r["kind"] == "click"
        ]
        assert indexed == expected
        assert len(indexed) == 3

    def test_partial_composite_match_not_usable(self, db):
        # Only "kind" has an equality: by_tenant_kind cannot serve it.
        db.stats.reset()
        assert planned_index(db, "events", where_from_dict({"kind": "click"})) is None
        assert db.stats.scans == 1

    def test_index_maintained_through_updates(self, db):
        db.update("events", where_from_dict({"tenant": "acme", "kind": "click"}),
                  {"kind": "tap"})
        where = where_from_dict({"tenant": "acme", "kind": "tap"})
        assert len(db.select("events", where=where)) == 3
        old = where_from_dict({"tenant": "acme", "kind": "click"})
        assert db.select("events", where=old) == []


class TestElemMatch:
    def test_engine_integration(self):
        """``$elemMatch`` is not an operator the engine has: every
        planned read and write refuses it, naming it, even with nothing
        to scan, instead of matching nothing."""
        db = MongoLike("m")
        query = {"items": {"$elemMatch": {"qty": 9}}}
        with pytest.raises(DatabaseError, match=r"\$elemMatch"):
            db.find("orders", query)
        db.insert_one("orders", {"items": [{"sku": "a", "qty": 9}]})
        for call in (db.find, db.count, db.delete_one):
            with pytest.raises(DatabaseError, match=r"\$elemMatch"):
                call("orders", query)
        with pytest.raises(DatabaseError, match=r"\$elemMatch"):
            db.update_one("orders", query, {"$set": {"n": 1}})
        assert db.count("orders") == 1
