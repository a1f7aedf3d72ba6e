"""Analytics extensions: SQL access paths, Mongo pipelines."""

import pytest

from repro.databases.document import MongoLike
from repro.databases.relational import (
    Col,
    Column,
    Index,
    Integer,
    PostgresLike,
    TableSchema,
    Text,
)
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
        assert len(db.select("orders", where=Col("id") == 3)) == 1
        assert (db.stats.index_lookups, db.stats.scans) == (1, 0)
        assert len(db.select("orders", where=Col("region") == "us")) == 2
        assert (db.stats.index_lookups, db.stats.scans) == (2, 0)
        assert len(db.select("orders", where=Col("total") > 5)) == 2
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
            {"$match": {"n": {"$gt": 0}}},
            {"$group": {"_id": "$kind", "count": {"$sum": 1},
                        "total": {"$sum": "$n"}}},
            {"$sort": {"total": -1}},
        ])
        assert out == [
            {"_id": "search", "count": 1, "total": 10},
            {"_id": "click", "count": 2, "total": 4},
        ]

    def test_unwind(self, db):
        out = db.aggregate("events", [
            {"$unwind": "$tags"},
            {"$group": {"_id": "$tags", "count": {"$sum": 1}}},
            {"$sort": {"count": -1, "_id": 1}},
        ])
        assert out[0] == {"_id": "a", "count": 2}

    def test_limit(self, db):
        assert len(db.aggregate("events", [{"$limit": 2}])) == 2

    def test_group_avg_min_max(self, db):
        out = db.aggregate("events", [
            {"$group": {"_id": None, "avg": {"$avg": "$n"},
                        "min": {"$min": "$n"}, "max": {"$max": "$n"}}},
        ])
        assert out == [{"_id": None, "avg": pytest.approx(14 / 3),
                        "min": 1, "max": 10}]

    def test_bad_stage_rejected(self, db):
        with pytest.raises(DatabaseError):
            db.aggregate("events", [{"$lookup": {}}])
        with pytest.raises(DatabaseError):
            db.aggregate("events", [{"$match": {}, "$limit": 1}])
