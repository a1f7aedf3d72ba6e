"""Composite-index planning and $elemMatch filter extensions."""

import pytest

from repro.databases.document import MongoLike, matches_filter
from repro.databases.relational import (
    Col,
    Column,
    Index,
    Integer,
    PostgresLike,
    TableSchema,
    Text,
)


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
        where = (Col("tenant") == "acme") & (Col("kind") == "click")
        assert planned_index(db, "events", where) == "by_tenant_kind"

    def test_falls_back_to_narrower_index(self, db):
        assert planned_index(db, "events", Col("tenant") == "acme") == "by_tenant"

    def test_composite_results_match_scan(self, db):
        where = (Col("tenant") == "acme") & (Col("kind") == "click")
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
        assert planned_index(db, "events", Col("kind") == "click") is None
        assert db.stats.scans == 1

    def test_index_maintained_through_updates(self, db):
        db.update("events", (Col("tenant") == "acme") & (Col("kind") == "click"),
                  {"kind": "tap"})
        where = (Col("tenant") == "acme") & (Col("kind") == "tap")
        assert len(db.select("events", where=where)) == 3
        old = (Col("tenant") == "acme") & (Col("kind") == "click")
        assert db.select("events", where=old) == []


class TestElemMatch:
    def test_elem_match_on_subdocuments(self):
        doc = {"items": [{"sku": "a", "qty": 1}, {"sku": "b", "qty": 5}]}
        assert matches_filter(doc, {"items": {"$elemMatch": {"qty": {"$gt": 3}}}})
        assert matches_filter(
            doc, {"items": {"$elemMatch": {"sku": "b", "qty": {"$gte": 5}}}}
        )
        # No single element satisfies both conditions together.
        assert not matches_filter(
            doc, {"items": {"$elemMatch": {"sku": "a", "qty": {"$gt": 3}}}}
        )

    def test_elem_match_on_scalars(self):
        doc = {"scores": [1, 7, 3]}
        assert matches_filter(doc, {"scores": {"$elemMatch": {"$gt": 5}}})
        assert not matches_filter(doc, {"scores": {"$elemMatch": {"$gt": 9}}})

    def test_elem_match_on_non_array(self):
        assert not matches_filter({"x": 3}, {"x": {"$elemMatch": {"$gt": 1}}})

    def test_engine_integration(self):
        db = MongoLike("m")
        db.insert_one("orders", {"items": [{"sku": "a", "qty": 1}]})
        db.insert_one("orders", {"items": [{"sku": "a", "qty": 9}]})
        hits = db.find("orders", {"items": {"$elemMatch": {"qty": {"$gt": 5}}}})
        assert len(hits) == 1
