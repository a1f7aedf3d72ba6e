"""Unit tests for the columnar (Cassandra-like) engine."""

import pytest

from repro.databases.columnar import CassandraLike, ColumnFamily
from repro.errors import SchemaError, UnknownTableError


@pytest.fixture
def db():
    database = CassandraLike("cass", flush_threshold=4)
    database.create_table(ColumnFamily("users"))
    return database


class TestBasics:
    def test_put_get(self, db):
        db.put("users", {"id": 1, "name": "a"})
        assert db.get_by_id("users", 1) == {"id": 1, "name": "a"}

    def test_put_assigns_id_when_missing(self, db):
        key = db.put("users", {"name": "a"})
        assert db.get("users", key)["name"] == "a"

    def test_upsert_merges_columns(self, db):
        db.put("users", {"id": 1, "name": "a"})
        db.put("users", {"id": 1, "age": 3})
        assert db.get_by_id("users", 1) == {"id": 1, "name": "a", "age": 3}

    def test_newest_write_wins(self, db):
        db.put("users", {"id": 1, "name": "a"})
        db.put("users", {"id": 1, "name": "b"})
        assert db.get_by_id("users", 1)["name"] == "b"

    def test_delete_tombstones(self, db):
        db.put("users", {"id": 1, "name": "a"})
        db.delete("users", (1,))
        assert db.get_by_id("users", 1) is None

    def test_write_after_delete_resurrects(self, db):
        db.put("users", {"id": 1, "name": "a"})
        db.delete("users", (1,))
        db.put("users", {"id": 1, "name": "b"})
        assert db.get_by_id("users", 1) == {"id": 1, "name": "b"}

    def test_missing_table(self, db):
        with pytest.raises(UnknownTableError):
            db.get("nope", (1,))

    def test_duplicate_family_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_table(ColumnFamily("users"))


class TestLSM:
    def test_flush_and_read_through_sstables(self, db):
        for i in range(20):
            db.put("users", {"id": i, "name": f"u{i}"})
        assert db._family("users").sstables  # the memtable flushed
        # Every row remains visible post-flush.
        assert db.count("users") == 20
        assert db.get_by_id("users", 3)["name"] == "u3"

    def test_compaction_bounds_sstables(self, db):
        for i in range(200):
            db.put("users", {"id": i % 10, "v": i})
        # 50 flushes of a 4-row memtable, yet never more than 5 SSTables.
        assert len(db._family("users").sstables) <= 5
        # Latest value per key survives compaction.
        assert db.get_by_id("users", 9)["v"] == 199

    def test_tombstone_survives_flush(self, db):
        db.put("users", {"id": 1, "name": "a"})
        db.delete("users", (1,))
        for i in range(10, 40):
            db.put("users", {"id": i})
        assert db.get_by_id("users", 1) is None


class TestClusteringAndScan:
    def test_clustering_rows(self):
        db = CassandraLike("c")
        db.create_table(ColumnFamily("events", partition_key="user_id", clustering_key="seq"))
        db.put("events", {"user_id": 1, "seq": 2, "what": "b"})
        db.put("events", {"user_id": 1, "seq": 1, "what": "a"})
        db.put("events", {"user_id": 2, "seq": 1, "what": "x"})
        assert db.get("events", (1, 1))["what"] == "a"
        assert db.get("events", (1, 2))["what"] == "b"
        assert db.get("events", (2, 1))["what"] == "x"
        assert db.count("events") == 3

    def test_scan_excludes_deleted(self, db):
        db.put("users", {"id": 1})
        db.put("users", {"id": 2})
        db.delete("users", (1,))
        assert [r["id"] for r in db.scan("users")] == [2]


class TestBatches:
    def test_no_returning(self, db):
        assert db.supports_returning is False
