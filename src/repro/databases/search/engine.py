"""Elasticsearch-like search engine."""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.databases.base import Database
from repro.databases.search.analysis import ANALYZERS, analyze
from repro.databases.search.inverted_index import InvertedIndex
from repro.databases.search.query import MatchAll, Query
from repro.errors import SchemaError, UnknownTableError

Doc = Dict[str, Any]


class _SearchIndex:
    """One named index: stored docs + per-text-field inverted indexes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.docs: Dict[Any, Doc] = {}
        self.field_analyzers: Dict[str, str] = {}
        self.inverted: Dict[str, InvertedIndex] = {}
        self._id_seq = itertools.count(1)

    def analyzer_for(self, field: str) -> str:
        return self.field_analyzers.get(field, "standard")

    def index_fields(self, doc_id: Any, doc: Doc) -> None:
        for field, value in doc.items():
            if not isinstance(value, str):
                continue
            inv = self.inverted.setdefault(field, InvertedIndex())
            inv.add(doc_id, analyze(value, self.analyzer_for(field)))

    def unindex_fields(self, doc_id: Any) -> None:
        for inv in self.inverted.values():
            inv.remove(doc_id)

    # Adapter surface consumed by the Query AST --------------------------

    def field_index(self, field: str) -> InvertedIndex:
        return self.inverted.get(field, InvertedIndex())

    def field_analyzer(self, field: str) -> str:
        return self.analyzer_for(field)

    def all_doc_ids(self) -> Set[Any]:
        return set(self.docs)


class SearchDatabase(Database):
    """Document indexing plus scored queries and the terms aggregation.

    Writes return the indexed document (Elasticsearch's index API echoes
    the document back), so the cheap Synapse intercept path applies.
    """

    engine_family = "search"
    supports_returning = True
    supports_transactions = False

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self._indexes: Dict[str, _SearchIndex] = {}

    # -- index management -------------------------------------------------

    def create_index(
        self, name: str, analyzers: Optional[Dict[str, str]] = None
    ) -> None:
        with self._lock:
            if name in self._indexes:
                raise SchemaError(f"index {name!r} already exists")
            index = _SearchIndex(name)
            for field, analyzer in (analyzers or {}).items():
                if analyzer not in ANALYZERS:
                    raise SchemaError(f"unknown analyzer {analyzer!r}")
                index.field_analyzers[field] = analyzer
            self._indexes[name] = index

    def ensure_index(self, name: str) -> None:
        if name not in self._indexes:
            self.create_index(name)

    def has_table(self, name: str) -> bool:
        return name in self._indexes

    # -- writes ---------------------------------------------------------------

    def index_doc(self, index: str, doc: Doc) -> Doc:
        """Index (upsert) one document, returning it with its ``_id``."""
        with self._lock:
            self._charge_write()
            self.ensure_index(index)
            idx = self._index(index)
            new_doc = dict(doc)
            doc_id = new_doc.get("_id")
            if doc_id is None:
                doc_id = next(idx._id_seq)
                new_doc["_id"] = doc_id
            if doc_id in idx.docs:
                idx.unindex_fields(doc_id)
            idx.docs[doc_id] = new_doc
            idx.index_fields(doc_id, new_doc)
            return dict(new_doc)

    def delete_doc(self, index: str, doc_id: Any) -> Optional[Doc]:
        with self._lock:
            self._charge_write()
            self.stats.deletes += 1
            idx = self._index(index)
            doc = idx.docs.pop(doc_id, None)
            if doc is not None:
                idx.unindex_fields(doc_id)
            return doc

    # -- reads ---------------------------------------------------------------

    def get(self, index: str, doc_id: Any) -> Optional[Doc]:
        with self._lock:
            self._charge_read()
            self.stats.index_lookups += 1
            self.ensure_index(index)
            doc = self._index(index).docs.get(doc_id)
            return dict(doc) if doc is not None else None

    def search(
        self,
        index: str,
        query: Optional[Query] = None,
        size: Optional[int] = 10,
    ) -> List[Tuple[Doc, float]]:
        """Run a query; returns (document, score) best-first."""
        with self._lock:
            self._charge_read()
            self.ensure_index(index)
            idx = self._index(index)
            scores = (query or MatchAll()).matches(idx)
            hits = sorted(
                scores.items(), key=lambda kv: (-kv[1], str(kv[0]))
            )
            if size is not None:
                hits = hits[:size]
            return [(dict(idx.docs[doc_id]), score) for doc_id, score in hits]

    def count(self, index: str, query: Optional[Query] = None) -> int:
        with self._lock:
            self._charge_read()
            self.ensure_index(index)
            idx = self._index(index)
            return len((query or MatchAll()).matches(idx))

    def aggregate(
        self,
        index: str,
        kind: str,
        field: str,
        query: Optional[Query] = None,
    ) -> List[Dict[str, Any]]:
        """The ``terms`` aggregation over query hits: one bucket per
        distinct value, most frequent first; a list field counts each
        element."""
        if kind != "terms":
            raise SchemaError(f"unknown aggregation {kind!r}")
        with self._lock:
            self._charge_read()
            self.ensure_index(index)
            idx = self._index(index)
            counter: Counter = Counter()
            for doc_id in (query or MatchAll()).matches(idx):
                value = idx.docs[doc_id].get(field)
                if isinstance(value, list):
                    counter.update(value)
                elif value is not None:
                    counter[value] += 1
        return [{"key": key, "doc_count": count} for key, count in counter.most_common()]

    # -- internals ---------------------------------------------------------------

    def _index(self, name: str) -> _SearchIndex:
        try:
            return self._indexes[name]
        except KeyError:
            raise UnknownTableError(f"no search index {name!r}") from None


class ElasticsearchLike(SearchDatabase):
    """Elasticsearch stand-in."""

    engine_family = "elasticsearch"
