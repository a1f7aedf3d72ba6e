"""SELECT ordering: one ``(column, direction)`` pair."""

import pytest

from repro.databases.relational import (
    Column,
    Integer,
    PostgresLike,
    TableSchema,
    Text,
)


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


class TestMultiColumnOrdering:
    def test_single_tuple_still_works(self, db):
        rows = db.select("people", order_by=("age", "asc"))
        assert [r["age"] for r in rows] == [20, 20, 20, 30, 30]
