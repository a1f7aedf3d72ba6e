"""Memtable and SSTable structures for the LSM write path.

Cells are ``(timestamp, value)`` pairs merged newest-wins per column, the
way Cassandra reconciles replicas and levels. Row deletion writes a
tombstone cell that shadows any older data.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

# rowkey -> column -> (timestamp, value)
Cells = Dict[Tuple, Dict[str, Tuple[int, Any]]]
# rowkey -> tombstone timestamp
Tombstones = Dict[Tuple, int]


class Memtable:
    """Mutable in-memory write buffer."""

    def __init__(self) -> None:
        self.cells: Cells = {}
        self.tombstones: Tombstones = {}

    def put(self, rowkey: Tuple, values: Dict[str, Any], timestamp: int) -> None:
        row = self.cells.setdefault(rowkey, {})
        for column, value in values.items():
            existing = row.get(column)
            if existing is None or existing[0] <= timestamp:
                row[column] = (timestamp, value)

    def delete(self, rowkey: Tuple, timestamp: int) -> None:
        current = self.tombstones.get(rowkey, -1)
        if timestamp > current:
            self.tombstones[rowkey] = timestamp

    def approximate_size(self) -> int:
        return len(self.cells) + len(self.tombstones)


class SSTable:
    """Immutable on-"disk" table produced by a memtable flush."""

    def __init__(self, cells: Cells, tombstones: Tombstones) -> None:
        self.cells = cells
        self.tombstones = tombstones

    @classmethod
    def from_memtable(cls, memtable: Memtable) -> "SSTable":
        return cls(dict(memtable.cells), dict(memtable.tombstones))


def merge_row(
    rowkey: Tuple,
    sources: Iterable,
) -> Optional[Dict[str, Any]]:
    """Reconcile one row across memtable + SSTables (newest-wins per cell).

    ``sources`` iterates newest-first. Returns the visible row columns or
    None when a tombstone shadows every cell.
    """
    tombstone_ts = -1
    merged: Dict[str, Tuple[int, Any]] = {}
    for source in sources:
        ts = source.tombstones.get(rowkey)
        if ts is not None and ts > tombstone_ts:
            tombstone_ts = ts
        row = source.cells.get(rowkey)
        if row:
            for column, cell in row.items():
                existing = merged.get(column)
                if existing is None or cell[0] > existing[0]:
                    merged[column] = cell
    visible = {
        column: value
        for column, (ts, value) in merged.items()
        if ts > tombstone_ts
    }
    return visible or None


def compact(sstables: Iterable[SSTable]) -> SSTable:
    """Merge SSTables into one, dropping cells shadowed by tombstones."""
    tables = list(sstables)
    all_keys = set()
    for table in tables:
        all_keys.update(table.cells)
        all_keys.update(table.tombstones)
    cells: Cells = {}
    tombstones: Tombstones = {}
    for key in all_keys:
        ts = max((t.tombstones.get(key, -1) for t in tables), default=-1)
        if ts >= 0:
            tombstones[key] = ts
        merged: Dict[str, Tuple[int, Any]] = {}
        for table in tables:
            for column, cell in table.cells.get(key, {}).items():
                existing = merged.get(column)
                if existing is None or cell[0] > existing[0]:
                    merged[column] = cell
        live = {c: cell for c, cell in merged.items() if cell[0] > ts}
        if live:
            cells[key] = live
    return SSTable(cells, tombstones)
