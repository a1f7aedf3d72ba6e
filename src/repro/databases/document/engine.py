"""Document store engine and its vendor variants."""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.databases.base import Database
from repro.databases.document.filters import (
    _deep_copy,
    check_filter,
    get_path,
    matches_filter,
    set_fields,
    set_path,
    _MISSING,
)
from repro.databases.relational.transaction import Transaction, TransactionManager
from repro.errors import DatabaseError, DuplicateKeyError, UnsupportedOperationError

Doc = Dict[str, Any]


class _Collection:
    """One schemaless collection keyed by ``_id``."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.docs: Dict[int, Doc] = {}
        self._id_seq = itertools.count(1)

    def next_id(self) -> int:
        return next(self._id_seq)

    def note_external_id(self, doc_id: int) -> None:
        if isinstance(doc_id, int):
            current = next(self._id_seq)
            self._id_seq = itertools.count(max(current, doc_id + 1))


class DocumentDatabase(Database):
    """MongoDB-style API: ``insert_one``, ``find``, ``update_one``...

    Writes return the written document (MongoDB exposes the written rows,
    so Synapse's cheap intercept path applies, §4.1).
    """

    engine_family = "document"
    supports_returning = True
    supports_transactions = False

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self._collections: Dict[str, _Collection] = {}
        self._txns = TransactionManager()

    # -- collections --------------------------------------------------------

    def collection(self, name: str) -> _Collection:
        col = self._collections.get(name)
        if col is None:
            col = _Collection(name)
            self._collections[name] = col
        return col

    # -- writes --------------------------------------------------------------

    def insert_one(self, collection: str, doc: Doc) -> Doc:
        with self._lock:
            self._charge_write()
            col = self.collection(collection)
            new_doc = _deep_copy(doc)
            doc_id = new_doc.get("_id")
            if doc_id is None:
                doc_id = col.next_id()
                new_doc["_id"] = doc_id
            else:
                col.note_external_id(doc_id)
            if doc_id in col.docs:
                raise DuplicateKeyError(f"duplicate _id {doc_id} in {collection!r}")
            col.docs[doc_id] = new_doc
            txn = self._txns.current()
            if txn is not None:
                txn.record_insert(collection, doc_id)
            return _deep_copy(new_doc)

    def update_one(
        self, collection: str, query: Dict[str, Any], update: Dict[str, Any]
    ) -> Optional[Doc]:
        """``$set`` fields of the first matching document; returns the
        new document. The stored version is a copy of the returned one,
        so neither it nor the ``$set`` values can reach the store."""
        patch = set_fields(update)
        with self._lock:
            self._charge_write()
            col = self.collection(collection)
            for old in self._plan(col, query):
                new_doc = _deep_copy(old)
                for path, value in patch.items():
                    set_path(new_doc, path, value)
                col.docs[old["_id"]] = _deep_copy(new_doc)
                txn = self._txns.current()
                if txn is not None:
                    txn.record_replace(collection, old["_id"], old)
                return new_doc
            return None

    def delete_one(self, collection: str, query: Dict[str, Any]) -> Optional[Doc]:
        with self._lock:
            self._charge_write()
            self.stats.deletes += 1
            col = self.collection(collection)
            for doc in self._plan(col, query):
                removed = col.docs.pop(doc["_id"])
                txn = self._txns.current()
                if txn is not None:
                    txn.record_delete(collection, removed)
                return _deep_copy(removed)
            return None

    # -- reads ---------------------------------------------------------------

    def find(
        self,
        collection: str,
        query: Optional[Dict[str, Any]] = None,
        sort: Optional[Tuple[str, int]] = None,
        limit: Optional[int] = None,
    ) -> List[Doc]:
        with self._lock:
            self._charge_read()
            col = self.collection(collection)
            docs = list(self._plan(col, query or {}))
            if sort is not None:
                path, direction = sort
                docs.sort(
                    key=lambda d: _sort_key(get_path(d, path)),
                    reverse=(direction < 0),
                )
            else:
                docs.sort(key=lambda d: d["_id"])
            return [_deep_copy(d) for d in docs[:limit]]

    def get(self, collection: str, doc_id: Any) -> Optional[Doc]:
        with self._lock:
            self._charge_read()
            self.stats.index_lookups += 1
            doc = self.collection(collection).docs.get(doc_id)
            return _deep_copy(doc) if doc is not None else None

    def count(self, collection: str, query: Optional[Dict[str, Any]] = None) -> int:
        with self._lock:
            self._charge_read()
            col = self.collection(collection)
            return sum(1 for _ in self._plan(col, query or {}))

    def aggregate(
        self, collection: str, pipeline: List[Dict[str, Any]]
    ) -> List[Doc]:
        """A subset of the MongoDB aggregation pipeline: ``$group`` (with
        ``$sum`` over a field or a literal, 1 for counting), ``$sort`` and
        ``$limit``."""
        docs = self.find(collection, limit=None)
        for stage in pipeline:
            if len(stage) != 1:
                raise DatabaseError("each pipeline stage has exactly one key")
            op, spec = next(iter(stage.items()))
            if op == "$group":
                docs = _group_stage(docs, spec)
            elif op == "$sort":
                for path, direction in reversed(list(spec.items())):
                    docs.sort(
                        key=lambda d, p=path: _sort_key(get_path(d, p)),
                        reverse=(direction < 0),
                    )
            elif op == "$limit":
                docs = docs[:spec]
            else:
                raise DatabaseError(f"unsupported pipeline stage {op!r}")
        return docs

    # -- planner ---------------------------------------------------------------

    def _plan(self, col: _Collection, query: Dict[str, Any]) -> Iterable[Doc]:
        """The documents matching ``query``. A filter on a plain ``_id``
        is a point lookup; an ``_id``-only one needs no filter walk."""
        doc_id = query.get("_id", _MISSING)
        if doc_id is not _MISSING and not isinstance(doc_id, dict):
            if len(query) > 1:
                check_filter(query)
            self.stats.index_lookups += 1
            doc = col.docs.get(doc_id)
            if doc is not None and (len(query) == 1 or matches_filter(doc, query)):
                yield doc
            return
        check_filter(query)
        self.stats.scans += 1
        for doc_id in list(col.docs):
            doc = col.docs.get(doc_id)
            if doc is not None and matches_filter(doc, query):
                yield doc

    # -- transactions (TokuMX-like variants) -----------------------------------

    def begin(self) -> Transaction:
        if not self.supports_transactions:
            raise UnsupportedOperationError(
                f"{self.engine_family} does not support transactions"
            )
        self.stats.transactions += 1
        return self._txns.begin(self)

    def current_transaction(self) -> Optional[Transaction]:
        return self._txns.current()

    def _finish_transaction(self, txn: Transaction) -> None:
        self._txns.finish(txn)

    def _undo_insert(self, collection: str, doc_id: Any) -> None:
        with self._lock:
            self.collection(collection).docs.pop(doc_id, None)

    def _undo_replace(self, collection: str, doc_id: Any, old_doc: Doc) -> None:
        with self._lock:
            self.collection(collection).docs[doc_id] = _deep_copy(old_doc)

    def _undo_delete(self, collection: str, old_doc: Doc) -> None:
        with self._lock:
            self.collection(collection).docs[old_doc["_id"]] = _deep_copy(old_doc)


def _group_stage(docs: List[Doc], spec: Dict[str, Any]) -> List[Doc]:
    """The $group stage: _id expression plus accumulator fields."""
    id_expr = spec.get("_id")
    groups: Dict[Any, List[Doc]] = {}
    order: List[Any] = []
    for doc in docs:
        if isinstance(id_expr, str) and id_expr.startswith("$"):
            key = get_path(doc, id_expr[1:])
            key = None if key is _MISSING else key
        else:
            key = id_expr
        hashable = tuple(key) if isinstance(key, list) else key
        if hashable not in groups:
            groups[hashable] = []
            order.append((hashable, key))
        groups[hashable].append(doc)
    out: List[Doc] = []
    for hashable, key in order:
        bucket = groups[hashable]
        result: Doc = {"_id": key}
        for field, accumulator in spec.items():
            if field == "_id":
                continue
            op, operand = next(iter(accumulator.items()))
            if op != "$sum":
                raise DatabaseError(f"unsupported accumulator {op!r}")
            if isinstance(operand, str) and operand.startswith("$"):
                values = [
                    v for v in (get_path(d, operand[1:]) for d in bucket)
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                ]
            else:
                values = [operand] * len(bucket)
            result[field] = sum(values)
        out.append(result)
    return out


def _sort_key(value: Any) -> Tuple[int, Any]:
    if value is _MISSING or value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (3, str(value))


class MongoLike(DocumentDatabase):
    """MongoDB stand-in: schemaless, no multi-document transactions."""

    engine_family = "mongodb"


class TokuMXLike(DocumentDatabase):
    """TokuMX stand-in: MongoDB API *with* multi-document transactions,
    which is why Crowdtap migrated to it (§6.5)."""

    engine_family = "tokumx"
    supports_transactions = True


class RethinkDBLike(DocumentDatabase):
    """RethinkDB stand-in: document model with changefeed-friendly writes."""

    engine_family = "rethinkdb"
