"""Analytics extensions: SQL access paths, Mongo pipelines."""

import re

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


class TestRelationalAggregation:
    @pytest.fixture
    def db(self):
        database = PostgresLike("pg")
        database.create_table(
            TableSchema(
                "orders",
                [Column("region", Text()), Column("total", Integer())],
                indexes=[Index("by_region", ["region"])],
            )
        )
        for region, total in [("us", 10), ("us", 20), ("eu", 5), ("eu", None)]:
            database.insert("orders", {"region": region, "total": total})
        return database

    def test_explain_paths(self, db):
        """The access path each ``select`` takes, read off the counters:
        primary key and index are lookups, anything else scans."""
        db.stats.reset()
        assert len(db.select("orders", where=where_from_dict({"id": 3}))) == 1
        assert (db.stats.index_lookups, db.stats.scans) == (1, 0)
        assert len(db.select("orders", where=where_from_dict({"region": "us"}))) == 2
        assert (db.stats.index_lookups, db.stats.scans) == (2, 0)
        assert len(db.select("orders", where=where_from_dict({"total": 20}))) == 1
        assert (db.stats.index_lookups, db.stats.scans) == (2, 1)


class TestDocumentPipeline:
    @pytest.fixture
    def db(self):
        database = MongoLike("m")
        docs = [
            {"kind": "click", "n": 3, "tags": ["a", "b"]},
            {"kind": "click", "n": 1, "tags": ["a"]},
            {"kind": "search", "n": 10, "tags": []},
        ]
        for doc in docs:
            database.insert_one("events", doc)
        return database

    def test_match_group_sort(self, db):
        out = db.aggregate("events", [
            {"$group": {"_id": "$kind", "count": {"$sum": 1},
                        "total": {"$sum": "$n"}}},
            {"$sort": {"total": -1}},
        ])
        assert out == [
            {"_id": "search", "count": 1, "total": 10},
            {"_id": "click", "count": 2, "total": 4},
        ]
        with pytest.raises(DatabaseError, match=r"'\$match'"):
            db.aggregate("events", [{"$match": {"n": 3}}])

    def test_unwind(self, db):
        """``$unwind`` is not a stage the engine has: refused by name."""
        with pytest.raises(DatabaseError, match=r"'\$unwind'"):
            db.aggregate("events", [
                {"$unwind": "$tags"},
                {"$group": {"_id": "$tags", "count": {"$sum": 1}}},
            ])

    def test_limit(self, db):
        assert len(db.aggregate("events", [{"$limit": 2}])) == 2

    def test_group_avg_min_max(self, db):
        """``$sum`` is the one accumulator; the others are refused by name."""
        for op in ("$avg", "$min", "$max"):
            with pytest.raises(DatabaseError, match=re.escape(repr(op))):
                db.aggregate("events", [{"$group": {"_id": None, "x": {op: "$n"}}}])

    def test_bad_stage_rejected(self, db):
        with pytest.raises(DatabaseError, match=r"'\$lookup'"):
            db.aggregate("events", [{"$lookup": {}}])
        with pytest.raises(DatabaseError):
            db.aggregate("events", [{"$match": {}, "$limit": 1}])
