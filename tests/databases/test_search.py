"""Unit tests for the search (Elasticsearch-like) engine."""

import pytest

from repro.databases.search import (
    ElasticsearchLike,
    Match,
    MatchAll,
    Term,
    analyze,
)
from repro.errors import SchemaError


@pytest.fixture
def db():
    database = ElasticsearchLike("es")
    database.create_index("posts", analyzers={"body": "standard", "tag": "simple"})
    return database


class TestAnalysis:
    def test_simple_analyzer(self):
        assert analyze("Hello, World-42!", "simple") == ["hello", "world"]

    def test_standard_analyzer_drops_stopwords(self):
        assert analyze("The quick fox and the dog", "standard") == ["quick", "fox", "dog"]

    def test_unknown_analyzer(self):
        with pytest.raises(ValueError):
            analyze("x", "nope")


class TestIndexing:
    def test_index_assigns_ids(self, db):
        d1 = db.index_doc("posts", {"body": "hello"})
        d2 = db.index_doc("posts", {"body": "world"})
        assert (d1["_id"], d2["_id"]) == (1, 2)

    def test_reindex_replaces(self, db):
        db.index_doc("posts", {"_id": 1, "body": "cats are great"})
        db.index_doc("posts", {"_id": 1, "body": "dogs are great"})
        assert db.count("posts") == 1
        assert not db.search("posts", Match("body", "cats"))
        assert db.search("posts", Match("body", "dogs"))

    def test_delete_unindexes(self, db):
        doc = db.index_doc("posts", {"body": "hello"})
        db.delete_doc("posts", doc["_id"])
        assert db.count("posts") == 0
        assert not db.search("posts", Match("body", "hello"))

    def test_duplicate_index_creation_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_index("posts")


class TestQueries:
    def test_match_uses_field_analyzer(self, db):
        db.index_doc("posts", {"body": "The CATS are sleeping"})
        hits = db.search("posts", Match("body", "cats"))
        assert len(hits) == 1

    def test_term_is_not_analysed(self, db):
        db.index_doc("posts", {"tag": "New York"})
        assert db.search("posts", Term("tag", "york"))
        assert not db.search("posts", Term("tag", "York"))

    def test_tf_idf_ranks_rarer_and_denser_higher(self, db):
        db.index_doc("posts", {"_id": 1, "body": "cats cats cats"})
        db.index_doc("posts", {"_id": 2, "body": "cats and dogs"})
        db.index_doc("posts", {"_id": 3, "body": "only dogs here"})
        hits = db.search("posts", Match("body", "cats"))
        assert [h[0]["_id"] for h in hits] == [1, 2]
        assert hits[0][1] > hits[1][1]

    def test_match_all_and_size(self, db):
        for i in range(5):
            db.index_doc("posts", {"body": f"post {i}"})
        assert len(db.search("posts", MatchAll(), size=3)) == 3
        assert db.count("posts") == 5


class TestAggregations:
    def test_terms_counts_list_elements(self, db):
        db.index_doc("posts", {"interests": ["cats", "dogs"]})
        db.index_doc("posts", {"interests": ["cats"]})
        buckets = db.aggregate("posts", "terms", "interests")
        assert buckets[0] == {"key": "cats", "doc_count": 2}

    def test_aggregate_over_query_subset(self, db):
        db.index_doc("posts", {"body": "cats", "price": 1})
        db.index_doc("posts", {"body": "dogs", "price": 9})
        buckets = db.aggregate("posts", "terms", "price", query=Match("body", "cats"))
        assert buckets == [{"key": 1, "doc_count": 1}]
