"""Wide-column store (Cassandra stand-in): LSM write path with memtable,
immutable SSTables, compaction and tombstones."""

from repro.databases.columnar.engine import CassandraLike, ColumnarDatabase, ColumnFamily

__all__ = ["ColumnarDatabase", "CassandraLike", "ColumnFamily"]
