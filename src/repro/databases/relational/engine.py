"""The relational engine and its vendor-flavoured variants."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.databases.base import Database
from repro.databases.relational.expression import ALWAYS, Expression
from repro.databases.relational.schema import (
    PRIMARY_KEY,
    Column,
    Index,
    TableSchema,
)
from repro.databases.relational.storage import TableStorage
from repro.databases.relational.transaction import Transaction, TransactionManager
from repro.errors import (
    SchemaError,
    UnknownTableError,
    UnsupportedOperationError,
)

Row = Dict[str, Any]


class RelationalDatabase(Database):
    """In-memory relational engine: typed tables, indexes, WHERE planner,
    transactions, and (on capable variants) ``RETURNING *``."""

    engine_family = "relational"
    supports_transactions = True

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self._tables: Dict[str, TableStorage] = {}
        self._txns = TransactionManager()

    # ------------------------------------------------------------------ DDL

    def create_table(self, schema: TableSchema) -> None:
        with self._lock:
            if schema.name in self._tables:
                raise SchemaError(f"table {schema.name!r} already exists")
            self._tables[schema.name] = TableStorage(schema)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def add_column(self, table: str, column: Column) -> None:
        """ALTER TABLE ADD COLUMN; existing rows get the column's default."""
        with self._lock:
            storage = self._storage(table)
            storage.schema.add_column(column)
            default = column.default_value()
            for row in storage.rows.values():
                row[column.name] = default

    def drop_column(self, table: str, name: str) -> None:
        with self._lock:
            storage = self._storage(table)
            storage.schema.drop_column(name)
            for row in storage.rows.values():
                row.pop(name, None)

    # ----------------------------------------------------------------- DML

    def insert(self, table: str, values: Row, returning: bool = False) -> Optional[Row]:
        """INSERT one row; with ``returning`` echo the written row back."""
        self._check_returning(returning)
        with self._lock:
            self._charge_write()
            storage = self._storage(table)
            row = storage.schema.normalise(dict(values))
            written = storage.insert(row)
            txn = self._txns.current()
            if txn is not None:
                txn.record_insert(table, written[PRIMARY_KEY])
            return dict(written) if returning else None

    def select(
        self,
        table: str,
        where: Expression = ALWAYS,
        order_by: Optional[Tuple[str, str]] = None,
        limit: Optional[int] = None,
    ) -> List[Row]:
        """SELECT rows matching ``where``, ordered by one
        ``(column, "asc"|"desc")`` pair (primary key by default)."""
        with self._lock:
            self._charge_read()
            storage = self._storage(table)
            rows = list(self._plan(storage, where))
        if order_by is not None:
            column, direction = order_by
            rows.sort(key=lambda r: (r.get(column) is None, r.get(column)),
                      reverse=(direction.lower() == "desc"))
        else:
            rows.sort(key=lambda r: r[PRIMARY_KEY])
        return rows if limit is None else rows[:limit]

    def get(self, table: str, row_id: int) -> Optional[Row]:
        """Point lookup by primary key."""
        with self._lock:
            self._charge_read()
            self.stats.index_lookups += 1
            return self._storage(table).get(row_id)

    def count(self, table: str, where: Expression = ALWAYS) -> int:
        """Aggregation — per §4.2 these reads are *not* true dependencies."""
        with self._lock:
            self._charge_read()
            storage = self._storage(table)
            return sum(1 for _ in self._plan(storage, where))

    def update(
        self,
        table: str,
        where: Expression,
        values: Row,
        returning: bool = False,
    ) -> Any:
        """UPDATE matching rows; returns updated rows (or their count)."""
        self._check_returning(returning)
        with self._lock:
            self._charge_write()
            storage = self._storage(table)
            patch = storage.schema.normalise(dict(values), partial=True)
            patch.pop(PRIMARY_KEY, None)
            txn = self._txns.current()
            updated: List[Row] = []
            for row in list(self._plan(storage, where)):
                new_row = dict(row)
                new_row.update(patch)
                storage.replace(row[PRIMARY_KEY], new_row)
                if txn is not None:
                    txn.record_replace(table, row[PRIMARY_KEY], row)
                updated.append(new_row)
            return updated if returning else len(updated)

    def delete(self, table: str, where: Expression, returning: bool = False) -> Any:
        """DELETE matching rows; returns deleted rows (or their count)."""
        self._check_returning(returning)
        with self._lock:
            self._charge_write()
            self.stats.deletes += 1
            storage = self._storage(table)
            txn = self._txns.current()
            deleted: List[Row] = []
            for row in list(self._plan(storage, where)):
                storage.delete(row[PRIMARY_KEY])
                if txn is not None:
                    txn.record_delete(table, row)
                deleted.append(row)
            return deleted if returning else len(deleted)

    # -------------------------------------------------------------- planner

    def _plan(self, storage: TableStorage, where: Expression) -> Iterable[Row]:
        """Pick an access path: primary key, then the *widest* matching
        index (composite indexes win over single-column ones when every
        indexed column has a top-level equality), else full scan. The
        complete predicate is always re-checked."""
        schema = storage.schema
        candidates = dict(where.equality_candidates())
        if PRIMARY_KEY in candidates:
            self.stats.index_lookups += 1
            value = candidates[PRIMARY_KEY]
            row = storage.get(value) if isinstance(value, int) else None
            if row is not None and where.matches(row):
                yield row
            return
        best: Optional[Index] = None
        for index in schema.indexes.values():
            if all(column in candidates for column in index.columns):
                if best is None or len(index.columns) > len(best.columns):
                    best = index
        if best is not None:
            self.stats.index_lookups += 1
            key = tuple(candidates[column] for column in best.columns)
            for row_id in storage.ids_for_index_key(best.name, key):
                row = storage.get(row_id)
                if row is not None and where.matches(row):
                    yield row
            return
        self.stats.scans += 1
        for row in storage.scan():
            if where.matches(row):
                yield row

    # --------------------------------------------------------- transactions

    def begin(self) -> Transaction:
        self.stats.transactions += 1
        return self._txns.begin(self)

    def current_transaction(self) -> Optional[Transaction]:
        return self._txns.current()

    def _finish_transaction(self, txn: Transaction) -> None:
        self._txns.finish(txn)

    # Undo callbacks used by Transaction.rollback -------------------------

    def _undo_insert(self, table: str, row_id: int) -> None:
        with self._lock:
            self._storage(table).delete(row_id)

    def _undo_replace(self, table: str, row_id: int, old_row: Row) -> None:
        with self._lock:
            self._storage(table).replace(row_id, dict(old_row))

    def _undo_delete(self, table: str, old_row: Row) -> None:
        with self._lock:
            self._storage(table).insert(dict(old_row))

    # --------------------------------------------------------------- misc

    def _storage(self, table: str) -> TableStorage:
        try:
            return self._tables[table]
        except KeyError:
            raise UnknownTableError(f"no table {table!r} in {self.name!r}") from None

    def _check_returning(self, returning: bool) -> None:
        if returning and not self.supports_returning:
            raise UnsupportedOperationError(
                f"{self.engine_family} ({type(self).__name__}) has no RETURNING"
            )


class PostgresLike(RelationalDatabase):
    """PostgreSQL stand-in: full transactions and ``RETURNING *``."""

    engine_family = "postgresql"
    supports_returning = True


class OracleLike(RelationalDatabase):
    """Oracle stand-in: same capabilities as PostgreSQL for our purposes."""

    engine_family = "oracle"
    supports_returning = True


class MySQLLike(RelationalDatabase):
    """MySQL stand-in: no ``RETURNING``, forcing Synapse's extra-read
    intercept protocol (§4.1)."""

    engine_family = "mysql"
    supports_returning = False
