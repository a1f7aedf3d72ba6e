"""Per-engine mappers (Table 3's ORM adapters).

Each mapper is the analogue of one Ruby ORM from the paper:
ActiveRecord (relational), Mongoid (document), Cequel (columnar),
Stretcher (search), Neo4j (graph). Engines without ``RETURNING`` use the
read-back protocol of §4.1: perform the write, then issue an additional
read query to capture the written row.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Type

from repro.databases.columnar.engine import ColumnFamily
from repro.databases.relational.expression import where_from_dict
from repro.databases.relational.schema import Column, TableSchema
from repro.databases.relational.types import (
    Boolean,
    ColumnType,
    Float,
    Integer,
    Json,
    Text,
    Timestamp,
)
from repro.errors import ORMError
from repro.orm.mapper import Mapper, Row

_PY_TO_COLUMN: Dict[type, Type[ColumnType]] = {
    int: Integer,
    float: Float,
    str: Text,
    bool: Boolean,
    list: Json,
    dict: Json,
}


def _order_and_limit(
    rows: List[Row], limit: Optional[int], order_by: Optional[tuple]
) -> List[Row]:
    """``rows`` ordered and cut in memory, for an engine whose query
    does neither: ``None`` sorts last ascending, as the relational
    engine orders it."""
    if order_by is not None:
        field, direction = order_by
        rows.sort(key=lambda r: (r.get(field) is None, r.get(field)),
                  reverse=(direction == "desc"))
    return rows if limit is None else rows[:limit]


def _column_type_for(py_type: Optional[type]) -> ColumnType:
    if py_type is None:
        return Json()
    if py_type is Timestamp:
        return Timestamp()
    ctype = _PY_TO_COLUMN.get(py_type)
    return ctype() if ctype is not None else Json()


class RelationalMapper(Mapper):
    """ActiveRecord stand-in over the relational engine."""

    engine_families = ("relational", "postgresql", "mysql", "oracle")

    def ensure_storage(self) -> None:
        if self.db.has_table(self.table):
            return
        columns = [
            Column(f.name, _column_type_for(f.py_type))
            for f in self.model_cls.persisted_fields().values()
            if f.name != "id"
        ]
        self.db.create_table(TableSchema(self.table, columns))

    def _do_insert(self, attrs: Row) -> Row:
        if self.db.supports_returning:
            return self.db.insert(self.table, attrs, returning=True)
        # MySQL-like path: INSERT, then an additional read query (§4.1).
        self.db.insert(self.table, attrs)
        rows = self.db.select(
            self.table, order_by=("id", "desc"), limit=1
        )
        if attrs.get("id") is not None:
            return self.db.get(self.table, attrs["id"])
        return rows[0]

    def _do_update(self, row_id: Any, attrs: Row) -> Row:
        where = where_from_dict({"id": row_id})
        if self.db.supports_returning:
            rows = self.db.update(self.table, where, attrs, returning=True)
            if not rows:
                raise ORMError(f"update of missing row {row_id} in {self.table!r}")
            return rows[0]
        changed = self.db.update(self.table, where, attrs)
        if not changed:
            raise ORMError(f"update of missing row {row_id} in {self.table!r}")
        return self.db.get(self.table, row_id)

    def _do_delete(self, row_id: Any) -> Row:
        where = where_from_dict({"id": row_id})
        if self.db.supports_returning:
            rows = self.db.delete(self.table, where, returning=True)
            return rows[0] if rows else {"id": row_id}
        # Read-back first: once deleted the row is gone.
        old = self.db.get(self.table, row_id)
        self.db.delete(self.table, where)
        return old if old is not None else {"id": row_id}

    def _do_find(self, row_id: Any) -> Optional[Row]:
        return self.db.get(self.table, row_id)

    def _do_where(
        self, conditions: Row, limit: Optional[int], order_by: Optional[tuple]
    ) -> List[Row]:
        return self.db.select(
            self.table,
            where=where_from_dict(conditions),
            limit=limit,
            order_by=order_by,
        )

    def _do_count(self, conditions: Row) -> int:
        return self.db.count(self.table, where=where_from_dict(conditions))

    def current_transaction(self):
        return self.db.current_transaction()


class DocumentMapper(Mapper):
    """Mongoid stand-in; translates ``id`` <-> ``_id``."""

    engine_families = ("document", "mongodb", "tokumx", "rethinkdb")

    @staticmethod
    def _to_doc(attrs: Row) -> Row:
        doc = dict(attrs)
        if "id" in doc:
            doc["_id"] = doc.pop("id")
        return doc

    @staticmethod
    def _to_attrs(doc: Optional[Row]) -> Optional[Row]:
        """Rename ``_id`` to ``id`` in place: every engine call hands
        back a private copy of the stored document."""
        if doc is not None:
            doc["id"] = doc.pop("_id")
        return doc

    def _do_insert(self, attrs: Row) -> Row:
        doc = self._to_doc(attrs)
        if doc.get("_id") is None:
            doc.pop("_id", None)
        return self._to_attrs(self.db.insert_one(self.table, doc))

    def _do_update(self, row_id: Any, attrs: Row) -> Row:
        patch = {k: v for k, v in attrs.items() if k != "id"}
        doc = self.db.update_one(self.table, {"_id": row_id}, {"$set": patch})
        if doc is None:
            raise ORMError(f"update of missing document {row_id} in {self.table!r}")
        return self._to_attrs(doc)

    def _do_delete(self, row_id: Any) -> Row:
        doc = self.db.delete_one(self.table, {"_id": row_id})
        return self._to_attrs(doc) if doc is not None else {"id": row_id}

    def _do_find(self, row_id: Any) -> Optional[Row]:
        return self._to_attrs(self.db.get(self.table, row_id))

    def _do_where(
        self, conditions: Row, limit: Optional[int], order_by: Optional[tuple]
    ) -> List[Row]:
        query = self._to_doc(conditions)
        sort = None
        if order_by is not None:
            field, direction = order_by
            if field == "id":
                field = "_id"
            sort = (field, -1 if direction == "desc" else 1)
        docs = self.db.find(self.table, query, sort=sort, limit=limit)
        return [self._to_attrs(d) for d in docs]

    def _do_count(self, conditions: Row) -> int:
        return self.db.count(self.table, self._to_doc(conditions))

    def current_transaction(self):
        if self.db.supports_transactions:
            return self.db.current_transaction()
        return None


class ColumnarMapper(Mapper):
    """Cequel stand-in over the Cassandra-like engine.

    No ``RETURNING``: every write is followed by a read-back (§4.1).
    Deletes capture the row before tombstoning it.
    """

    engine_families = ("columnar", "cassandra")

    def ensure_storage(self) -> None:
        if not self.db.has_table(self.table):
            self.db.create_table(ColumnFamily(self.table, partition_key="id"))

    def _do_insert(self, attrs: Row) -> Row:
        rowkey = self.db.put(self.table, {k: v for k, v in attrs.items() if v is not None})
        return self.db.get(self.table, rowkey)

    def _do_update(self, row_id: Any, attrs: Row) -> Row:
        values = dict(attrs)
        values["id"] = row_id
        self.db.put(self.table, values)
        return self.db.get_by_id(self.table, row_id)

    def _do_delete(self, row_id: Any) -> Row:
        old = self.db.get_by_id(self.table, row_id)
        self.db.delete(self.table, (row_id,))
        return old if old is not None else {"id": row_id}

    def _do_find(self, row_id: Any) -> Optional[Row]:
        return self.db.get_by_id(self.table, row_id)

    def _do_where(
        self, conditions: Row, limit: Optional[int], order_by: Optional[tuple]
    ) -> List[Row]:
        if set(conditions) == {"id"}:
            row = self.db.get_by_id(self.table, conditions["id"])
            return [row] if row is not None else []
        rows = [
            row
            for row in self.db.scan(self.table)
            if all(row.get(k) == v for k, v in conditions.items())
        ]
        return _order_and_limit(rows, limit, order_by)

    def _do_count(self, conditions: Row) -> int:
        if not conditions:
            return self.db.count(self.table)
        return len(self._do_where(conditions, None, None))


class SearchMapper(Mapper):
    """Stretcher stand-in over the Elasticsearch-like engine.

    Models may declare per-field analyzers via ``__analyzers__`` on the
    model class (the ``analyzer: :simple`` of Sub1b in Fig 4).
    """

    engine_families = ("search", "elasticsearch")

    def ensure_storage(self) -> None:
        if not self.db.has_table(self.table):
            analyzers = getattr(self.model_cls, "__analyzers__", None)
            self.db.create_index(self.table, analyzers=analyzers)

    _to_attrs = staticmethod(DocumentMapper._to_attrs)

    def _do_insert(self, attrs: Row) -> Row:
        doc = {k: v for k, v in attrs.items() if k != "id"}
        if attrs.get("id") is not None:
            doc["_id"] = attrs["id"]
        return self._to_attrs(self.db.index_doc(self.table, doc))

    def _do_update(self, row_id: Any, attrs: Row) -> Row:
        doc = {k: v for k, v in attrs.items() if k != "id"}
        doc["_id"] = row_id
        return self._to_attrs(self.db.index_doc(self.table, doc))

    def _do_delete(self, row_id: Any) -> Row:
        doc = self.db.delete_doc(self.table, row_id)
        return self._to_attrs(doc) if doc is not None else {"id": row_id}

    def _do_find(self, row_id: Any) -> Optional[Row]:
        return self._to_attrs(self.db.get(self.table, row_id))

    def _do_where(
        self, conditions: Row, limit: Optional[int], order_by: Optional[tuple]
    ) -> List[Row]:
        hits = self.db.search(self.table, size=None)
        rows = [
            self._to_attrs(doc)
            for doc, _score in hits
        ]
        rows = [
            row for row in rows
            if all(row.get(k) == v for k, v in conditions.items())
        ]
        rows.sort(key=lambda r: str(r["id"]))
        return _order_and_limit(rows, limit, order_by)

    def _do_count(self, conditions: Row) -> int:
        if not conditions:
            return self.db.count(self.table)
        return len(self._do_where(conditions, None, None))


class GraphMapper(Mapper):
    """Neo4j ORM stand-in: each model instance is a labelled node.

    Relationships are managed by application code or Synapse observers
    (Example 2); the mapper handles node CRUD only.
    """

    engine_families = ("graph", "neo4j")

    @property
    def label(self) -> str:
        return self.model_cls.__name__

    def _do_insert(self, attrs: Row) -> Row:
        props = {k: v for k, v in attrs.items() if v is not None or k != "id"}
        if props.get("id") is None:
            props.pop("id", None)
        return self.db.create_node(self.label, props)

    def _do_update(self, row_id: Any, attrs: Row) -> Row:
        props = {k: v for k, v in attrs.items() if k != "id"}
        return self.db.update_node(row_id, props)

    def _do_delete(self, row_id: Any) -> Row:
        props = self.db.delete_node(row_id)
        return props if props is not None else {"id": row_id}

    def _do_find(self, row_id: Any) -> Optional[Row]:
        return self.db.get_node(row_id)

    def _do_where(
        self, conditions: Row, limit: Optional[int], order_by: Optional[tuple]
    ) -> List[Row]:
        rows = self.db.find_nodes(self.label, conditions)
        return _order_and_limit(rows, limit, order_by)

    def _do_count(self, conditions: Row) -> int:
        if not conditions:
            return self.db.count_nodes(self.label)
        return len(self.db.find_nodes(self.label, conditions))
