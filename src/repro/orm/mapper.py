"""Mapper base class and the engine-dispatch factory.

A mapper translates between a model's attribute dicts and one engine's
storage layout. All mappers expose the same CRUD surface — the "common
high-level object API" the paper leverages (§2) — and funnel every write
and read through an optional interceptor, which is where Synapse plugs in
(the *Synapse Query Intercept* module of Fig 6a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Type

from repro.errors import ORMError

Row = Dict[str, Any]


@dataclass
class WriteIntent:
    """A write about to be performed, handed to the interceptor *before*
    the engine executes it so locks can be taken (§4.2)."""

    kind: str  # "create" | "update" | "delete"
    model_cls: type
    row_id: Optional[Any]  # None for creates until the engine assigns one
    attrs: Row = field(default_factory=dict)


@dataclass
class WriteEvent:
    """A completed write: the final row as stored (including its id)."""

    kind: str
    model_cls: type
    row: Row


@dataclass
class ReadEvent:
    """Rows returned by a query — each is a read dependency (§4.2)."""

    model_cls: type
    rows: List[Row]


class Interceptor(Protocol):
    """What Synapse implements to interpose between ORM and engine."""

    def write(self, intent: WriteIntent, perform: Callable[[], Row]) -> Row:
        """Wrap the engine write; must call ``perform`` exactly once."""
        ...

    def read(self, event: ReadEvent) -> None:
        """Observe rows returned to the application."""
        ...


class Mapper:
    """Engine-agnostic CRUD core; subclasses supply the storage calls."""

    #: Engine families this mapper can drive.
    engine_families: tuple = ()

    def __init__(self, db: Any) -> None:
        self.db = db
        self.model_cls: Optional[Type] = None
        self.table: str = ""
        self.interceptor: Optional[Interceptor] = None
        # Optional mirrors into a shared MetricsRegistry (orm.<app>.*),
        # bound by the owning Service when the model is declared.
        self._metric_writes = None
        self._metric_reads = None

    # -- binding ----------------------------------------------------------

    def bind(self, model_cls: type) -> None:
        self.model_cls = model_cls
        self.table = model_cls.table_name()
        self.ensure_storage()

    def ensure_storage(self) -> None:
        """Create the table/collection/index backing the model."""

    # -- public CRUD (used by Model) ---------------------------------------

    def insert(self, attrs: Row) -> Row:
        intent = WriteIntent("create", self.model_cls, attrs.get("id"), dict(attrs))
        return self._dispatch(intent, lambda: self._do_insert(attrs))

    def update(self, row_id: Any, attrs: Row) -> Row:
        # Handed over as is: the interceptor reads it before ``perform``.
        intent = WriteIntent("update", self.model_cls, row_id, attrs)
        return self._dispatch(intent, lambda: self._do_update(row_id, attrs))

    def delete(self, row_id: Any) -> Row:
        intent = WriteIntent("delete", self.model_cls, row_id)
        return self._dispatch(intent, lambda: self._do_delete(row_id))

    def find(self, row_id: Any) -> Optional[Row]:
        row = self._do_find(row_id)
        if row is not None:
            self._emit_read([row])
        return row

    def where(
        self,
        conditions: Optional[Row] = None,
        limit: Optional[int] = None,
        order_by: Optional[tuple] = None,
    ) -> List[Row]:
        rows = self._do_where(conditions or {}, limit, order_by)
        self._emit_read(rows)
        return rows

    def count(self, conditions: Optional[Row] = None) -> int:
        # Aggregations are not read dependencies (§4.2).
        return self._do_count(conditions or {})

    # -- raw row writes (snapshot restore and WAL replay) ---------------------

    def upsert_raw(self, row_id: Any, attrs: Row) -> None:
        """Insert-or-overwrite one row at the storage layer: no
        interceptor, no callbacks, no read tracking. An insert starts
        from the model's field defaults, so a partially published row
        still carries every column the live write path would have
        initialised. A mapper that stores nothing stores nothing here."""
        attrs = {name: value for name, value in attrs.items() if name != "id"}
        if self._do_find(row_id) is not None:
            self._do_update(row_id, attrs)
            return
        row = {
            name: field.default_value()
            for name, field in self.model_cls._fields.items()
        }
        row.update(attrs)
        row["id"] = row_id
        self._do_insert(row)

    def delete_raw(self, row_id: Any) -> None:
        """Delete one row at the storage layer, if it is there."""
        if self._do_find(row_id) is not None:
            self._do_delete(row_id)

    # -- storage primitives (per engine) -------------------------------------

    def _do_insert(self, attrs: Row) -> Row:
        raise NotImplementedError

    def _do_update(self, row_id: Any, attrs: Row) -> Row:
        raise NotImplementedError

    def _do_delete(self, row_id: Any) -> Row:
        raise NotImplementedError

    def _do_find(self, row_id: Any) -> Optional[Row]:
        raise NotImplementedError

    def _do_where(
        self, conditions: Row, limit: Optional[int], order_by: Optional[tuple]
    ) -> List[Row]:
        raise NotImplementedError

    def _do_count(self, conditions: Row) -> int:
        raise NotImplementedError

    # -- interception plumbing ------------------------------------------------

    def bind_metrics(self, registry: Any, app: str) -> None:
        """Count ORM-level operations in a shared MetricsRegistry:
        ``orm.<app>.writes`` (dispatched write intents) and
        ``orm.<app>.reads`` (rows returned to the application)."""
        self._metric_writes = registry.counter(f"orm.{app}.writes")
        self._metric_reads = registry.counter(f"orm.{app}.reads")

    def _dispatch(self, intent: WriteIntent, perform: Callable[[], Row]) -> Row:
        if self._metric_writes is not None:
            self._metric_writes.increment()
        if self.interceptor is None:
            return perform()
        return self.interceptor.write(intent, perform)

    def _emit_read(self, rows: List[Row]) -> None:
        if self._metric_reads is not None and rows:
            self._metric_reads.increment(len(rows))
        if self.interceptor is not None and rows:
            self.interceptor.read(ReadEvent(self.model_cls, rows))


def mapper_for(db: Any) -> Mapper:
    """Pick the mapper matching the engine family of ``db``."""
    # Imported here to avoid import cycles at package load.
    from repro.orm.engine_mappers import (
        ColumnarMapper,
        DocumentMapper,
        GraphMapper,
        RelationalMapper,
        SearchMapper,
    )

    for mapper_cls in (
        RelationalMapper,
        DocumentMapper,
        ColumnarMapper,
        SearchMapper,
        GraphMapper,
    ):
        if db.engine_family in mapper_cls.engine_families:
            return mapper_cls(db)
    raise ORMError(f"no mapper for engine family {db.engine_family!r}")
