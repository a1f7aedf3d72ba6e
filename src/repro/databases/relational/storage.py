"""Row storage and secondary-index maintenance for one table."""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, Optional, Set

from repro.databases.relational.schema import PRIMARY_KEY, TableSchema
from repro.errors import DuplicateKeyError


class TableStorage:
    """Rows of one table plus hash indexes for point lookups.

    Rows are stored as plain dicts keyed by integer primary key; every
    declared index is a hash map from index-key tuple to the set of row
    ids. Copies are returned on read so callers can never mutate storage
    behind the engine's back.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: Dict[int, Dict[str, Any]] = {}
        self._id_seq = itertools.count(1)
        self._indexes: Dict[str, Dict[tuple, Set[int]]] = {
            name: {} for name in schema.indexes
        }

    # -- id allocation ------------------------------------------------------

    def next_id(self) -> int:
        return next(self._id_seq)

    def note_external_id(self, row_id: int) -> None:
        """Keep the sequence ahead of ids assigned by the application
        (subscribers persist objects with the publisher's ids)."""
        current = next(self._id_seq)
        start = max(current, row_id + 1)
        self._id_seq = itertools.count(start)

    # -- index plumbing ------------------------------------------------------

    def _index_add(self, row: Dict[str, Any]) -> None:
        for name, idx in self.schema.indexes.items():
            key = idx.key_for(row)
            bucket = self._indexes[name].setdefault(key, set())
            if idx.unique and bucket:
                raise DuplicateKeyError(
                    f"unique index {name!r} violated for key {key!r}"
                )
            bucket.add(row[PRIMARY_KEY])

    def _index_remove(self, row: Dict[str, Any]) -> None:
        for name, idx in self.schema.indexes.items():
            key = idx.key_for(row)
            bucket = self._indexes[name].get(key)
            if bucket is not None:
                bucket.discard(row[PRIMARY_KEY])
                if not bucket:
                    del self._indexes[name][key]

    # -- row operations ------------------------------------------------------

    def insert(self, row: Dict[str, Any]) -> Dict[str, Any]:
        row_id = row.get(PRIMARY_KEY)
        if row_id is None:
            row_id = self.next_id()
            row[PRIMARY_KEY] = row_id
        else:
            self.note_external_id(row_id)
        if row_id in self.rows:
            raise DuplicateKeyError(
                f"duplicate primary key {row_id} in {self.schema.name!r}"
            )
        self._check_unique_columns(row)
        self.rows[row_id] = row
        self._index_add(row)
        return dict(row)

    def replace(self, row_id: int, new_row: Dict[str, Any]) -> Dict[str, Any]:
        old = self.rows[row_id]
        self._index_remove(old)
        try:
            self._check_unique_columns(new_row, exclude_id=row_id)
            self._index_add(new_row)
        except DuplicateKeyError:
            self._index_add(old)
            raise
        self.rows[row_id] = new_row
        return dict(new_row)

    def delete(self, row_id: int) -> Optional[Dict[str, Any]]:
        row = self.rows.pop(row_id, None)
        if row is not None:
            self._index_remove(row)
        return dict(row) if row is not None else None

    def get(self, row_id: int) -> Optional[Dict[str, Any]]:
        row = self.rows.get(row_id)
        return dict(row) if row is not None else None

    def _check_unique_columns(
        self, row: Dict[str, Any], exclude_id: Optional[int] = None
    ) -> None:
        unique_cols = [
            c for c in self.schema.columns.values() if c.unique and c.name != PRIMARY_KEY
        ]
        for col in unique_cols:
            value = row.get(col.name)
            if value is None:
                continue
            for other_id, other in self.rows.items():
                if other_id == exclude_id:
                    continue
                if other.get(col.name) == value:
                    raise DuplicateKeyError(
                        f"unique column {col.name!r} violated with value {value!r}"
                    )

    # -- lookup helpers ------------------------------------------------------

    def ids_for_index_key(self, index_name: str, key: tuple) -> Set[int]:
        return set(self._indexes.get(index_name, {}).get(key, set()))

    def scan(self) -> Iterator[Dict[str, Any]]:
        # Materialise ids first so callers may mutate during iteration.
        for row_id in list(self.rows):
            row = self.rows.get(row_id)
            if row is not None:
                yield dict(row)
