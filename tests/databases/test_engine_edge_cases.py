"""Edge-case coverage across engines: mixed-type sorting, analyzer
validation, graph updates, missing-target operations."""

import pytest

from repro.databases.document import MongoLike
from repro.databases.graph import Neo4jLike
from repro.databases.relational import (
    Column,
    Integer,
    PostgresLike,
    TableSchema,
)
from repro.databases.relational.expression import where_from_dict
from repro.databases.search import ElasticsearchLike
from repro.errors import SchemaError, UnknownTableError


class TestDocumentEdges:
    def test_sort_with_mixed_types_is_total(self):
        db = MongoLike("m")
        for value in [3, "b", None, 1.5, True, {"x": 1}]:
            db.insert_one("c", {"v": value})
        docs = db.find("c", sort=("v", 1))
        assert len(docs) == 6  # no TypeError; deterministic order


class TestSearchEdges:
    def test_set_unknown_analyzer_rejected(self):
        db = ElasticsearchLike("e")
        with pytest.raises(SchemaError):
            db.create_index("docs", analyzers={"tag": "martian"})
        assert not db.has_table("docs")

    def test_delete_missing_doc_is_noop(self):
        db = ElasticsearchLike("e")
        db.create_index("docs")
        assert db.delete_doc("docs", 99) is None

    def test_index_names_and_missing_index(self):
        db = ElasticsearchLike("e")
        db.create_index("one")
        assert db.has_table("one") and not db.has_table("ghost")
        with pytest.raises(UnknownTableError):
            db.delete_doc("ghost", 1)


class TestRelationalEdges:
    def test_select_from_missing_table(self):
        db = PostgresLike("p")
        with pytest.raises(UnknownTableError):
            db.select("nope")

    def test_update_missing_rows_returns_zero(self):
        db = PostgresLike("p")
        db.create_table(TableSchema("t", [Column("x", Integer())]))
        assert db.update("t", where_from_dict({"x": 99}), {"x": 1}) == 0
        assert db.delete("t", where_from_dict({"x": 99})) == 0


class TestGraphEdges:
    def test_get_missing_node(self):
        db = Neo4jLike("g")
        assert db.get_node(99) is None
        assert db.delete_node(99) is None

    def test_find_nodes_empty_label(self):
        db = Neo4jLike("g")
        assert db.find_nodes("Ghost") == []
        assert db.count_nodes("Ghost") == 0
        assert db.count_nodes() == 0
