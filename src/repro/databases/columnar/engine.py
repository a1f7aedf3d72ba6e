"""Cassandra-like wide-column engine."""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.databases.base import Database
from repro.databases.columnar.memtable import Memtable, SSTable, compact, merge_row
from repro.errors import SchemaError, UnknownTableError

Row = Dict[str, Any]


class ColumnFamily:
    """Column-family declaration: partition key plus optional clustering key."""

    def __init__(
        self,
        name: str,
        partition_key: str = "id",
        clustering_key: Optional[str] = None,
    ) -> None:
        self.name = name
        self.partition_key = partition_key
        self.clustering_key = clustering_key

    def rowkey(self, values: Row) -> Tuple:
        partition = values.get(self.partition_key)
        if partition is None:
            raise SchemaError(
                f"missing partition key {self.partition_key!r} for {self.name!r}"
            )
        if self.clustering_key is None:
            return (partition,)
        return (partition, values.get(self.clustering_key))


class _Family:
    """Runtime state of one column family: memtable + SSTables."""

    def __init__(self, schema: ColumnFamily, flush_threshold: int) -> None:
        self.schema = schema
        self.memtable = Memtable()
        self.sstables: List[SSTable] = []
        self.flush_threshold = flush_threshold
        self._id_seq = itertools.count(1)

    def sources_newest_first(self) -> List:
        return [self.memtable] + list(reversed(self.sstables))

    def maybe_flush(self) -> None:
        if self.memtable.approximate_size() >= self.flush_threshold:
            self.sstables.append(SSTable.from_memtable(self.memtable))
            self.memtable = Memtable()
            if len(self.sstables) > 4:
                self.sstables = [compact(self.sstables)]


class ColumnarDatabase(Database):
    """Write-optimised engine: upserts land in a memtable, flushed to
    immutable SSTables and compacted. No ``RETURNING``: Synapse's
    read-back intercept protocol applies (§4.1).
    """

    engine_family = "columnar"
    supports_returning = False
    supports_transactions = False

    def __init__(self, name: str, flush_threshold: int = 512, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self._families: Dict[str, _Family] = {}
        self._flush_threshold = flush_threshold
        self._ts = itertools.count(1)

    # -- DDL -----------------------------------------------------------------

    def create_table(self, schema: ColumnFamily) -> None:
        with self._lock:
            if schema.name in self._families:
                raise SchemaError(f"column family {schema.name!r} exists")
            self._families[schema.name] = _Family(schema, self._flush_threshold)

    def has_table(self, name: str) -> bool:
        return name in self._families

    # -- writes ----------------------------------------------------------------

    def put(self, table: str, values: Row) -> Tuple:
        """Upsert columns of one row; returns the row key. Assigns the
        partition key from a per-family sequence when absent."""
        with self._lock:
            self._charge_write()
            family = self._family(table)
            values = dict(values)
            if values.get(family.schema.partition_key) is None:
                values[family.schema.partition_key] = next(family._id_seq)
            rowkey = family.schema.rowkey(values)
            family.memtable.put(rowkey, values, next(self._ts))
            family.maybe_flush()
            return rowkey

    def delete(self, table: str, rowkey: Tuple) -> None:
        with self._lock:
            self._charge_write()
            self.stats.deletes += 1
            family = self._family(table)
            family.memtable.delete(rowkey, next(self._ts))
            family.maybe_flush()

    # -- reads -----------------------------------------------------------------

    def get(self, table: str, rowkey: Tuple) -> Optional[Row]:
        with self._lock:
            self._charge_read()
            self.stats.index_lookups += 1
            family = self._family(table)
            return merge_row(rowkey, family.sources_newest_first())

    def get_by_id(self, table: str, partition: Any) -> Optional[Row]:
        """Point lookup for families without a clustering key."""
        return self.get(table, (partition,))

    def scan(self, table: str) -> List[Row]:
        """Full scan reconciling all sources; expensive, as on Cassandra."""
        with self._lock:
            self._charge_read()
            self.stats.scans += 1
            family = self._family(table)
            keys = set(family.memtable.cells) | set(family.memtable.tombstones)
            for sstable in family.sstables:
                keys.update(sstable.cells)
                keys.update(sstable.tombstones)
            sources = family.sources_newest_first()
            rows = []
            for key in keys:
                row = merge_row(key, sources)
                if row is not None:
                    rows.append(row)
            rows.sort(key=lambda r: str(r.get(family.schema.partition_key)))
            return rows

    def count(self, table: str) -> int:
        return len(self.scan(table))

    # -- internals ---------------------------------------------------------------

    def _family(self, table: str) -> _Family:
        try:
            return self._families[table]
        except KeyError:
            raise UnknownTableError(f"no column family {table!r}") from None


class CassandraLike(ColumnarDatabase):
    """Cassandra stand-in."""

    engine_family = "cassandra"
