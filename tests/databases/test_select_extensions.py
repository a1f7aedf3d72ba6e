"""SELECT extensions: DISTINCT and multi-column ORDER BY."""

import pytest

from repro.databases.relational import (
    Column,
    Integer,
    PostgresLike,
    TableSchema,
    Text,
)
from repro.errors import UnsupportedOperationError


@pytest.fixture
def db():
    database = PostgresLike("pg")
    database.create_table(
        TableSchema("people", [Column("city", Text()), Column("age", Integer())])
    )
    for city, age in [("nyc", 30), ("nyc", 20), ("sf", 30), ("sf", 20),
                      ("nyc", 20)]:
        database.insert("people", {"city": city, "age": age})
    return database


class TestDistinct:
    def test_distinct_on_projection(self, db):
        rows = db.select("people", columns=["city"], distinct=True)
        assert sorted(r["city"] for r in rows) == ["nyc", "sf"]

    def test_distinct_multi_column(self, db):
        rows = db.select("people", columns=["city", "age"], distinct=True)
        assert len(rows) == 4  # (nyc,20) deduped

    def test_distinct_requires_projection(self, db):
        with pytest.raises(UnsupportedOperationError):
            db.select("people", distinct=True)


class TestMultiColumnOrdering:
    def test_two_key_sort(self, db):
        rows = db.select(
            "people", order_by=[("city", "asc"), ("age", "desc")]
        )
        key = [(r["city"], r["age"]) for r in rows]
        assert key == [("nyc", 30), ("nyc", 20), ("nyc", 20),
                       ("sf", 30), ("sf", 20)]

    def test_single_tuple_still_works(self, db):
        rows = db.select("people", order_by=("age", "asc"))
        assert [r["age"] for r in rows] == [20, 20, 20, 30, 30]
