"""Unit tests for the graph (Neo4j-like) engine."""

import pytest

from repro.databases.graph import Neo4jLike
from repro.errors import DatabaseError


@pytest.fixture
def db():
    return Neo4jLike("neo")


def build_social(db):
    """1-2-3 chain of friends plus likes."""
    for i in range(1, 5):
        db.create_node("User", {"id": i, "name": f"u{i}"})
    for pid in (101, 102, 103):
        db.create_node("Product", {"id": pid})
    db.create_edge(1, "friend", 2, directed=False)
    db.create_edge(2, "friend", 3, directed=False)
    db.create_edge(2, "likes", 101)
    db.create_edge(3, "likes", 102)
    db.create_edge(3, "likes", 101)
    db.create_edge(1, "likes", 103)


class TestNodes:
    def test_create_and_get(self, db):
        node = db.create_node("User", {"name": "ada"})
        assert db.get_node(node["id"])["name"] == "ada"

    def test_explicit_id_advances_sequence(self, db):
        db.create_node("User", {"id": 10})
        node = db.create_node("User", {})
        assert node["id"] == 11

    def test_duplicate_node_rejected(self, db):
        db.create_node("User", {"id": 1})
        with pytest.raises(DatabaseError):
            db.create_node("User", {"id": 1})

    def test_update_node(self, db):
        node = db.create_node("User", {"name": "a"})
        db.update_node(node["id"], {"name": "b"})
        assert db.get_node(node["id"])["name"] == "b"

    def test_find_nodes_by_label_and_props(self, db):
        db.create_node("User", {"name": "a", "city": "nyc"})
        db.create_node("User", {"name": "b", "city": "sf"})
        db.create_node("Product", {"name": "a"})
        assert len(db.find_nodes("User")) == 2
        assert db.find_nodes("User", {"city": "sf"})[0]["name"] == "b"

    def test_delete_node_detaches_edges(self, db):
        a = db.create_node("User", {})
        b = db.create_node("User", {})
        db.create_edge(a["id"], "friend", b["id"], directed=False)
        db.delete_node(b["id"])
        assert not db.has_edge(a["id"], "friend", b["id"])
        assert not db.has_edge(b["id"], "friend", a["id"])


class TestEdges:
    def test_directed_edge(self, db):
        a = db.create_node("User", {})
        b = db.create_node("User", {})
        db.create_edge(a["id"], "follows", b["id"])
        assert db.has_edge(a["id"], "follows", b["id"])
        assert not db.has_edge(b["id"], "follows", a["id"])

    def test_undirected_edge(self, db):
        a = db.create_node("User", {})
        b = db.create_node("User", {})
        db.create_edge(a["id"], "friend", b["id"], directed=False)
        assert db.has_edge(a["id"], "friend", b["id"])
        assert db.has_edge(b["id"], "friend", a["id"])

    def test_delete_edge(self, db):
        a = db.create_node("User", {})
        b = db.create_node("User", {})
        db.create_edge(a["id"], "friend", b["id"], directed=False)
        db.delete_edge(a["id"], "friend", b["id"], directed=False)
        assert not db.has_edge(a["id"], "friend", b["id"])
        assert not db.has_edge(b["id"], "friend", a["id"])

    def test_edge_to_missing_node_rejected(self, db):
        a = db.create_node("User", {})
        with pytest.raises(DatabaseError):
            db.create_edge(a["id"], "friend", 999)


class TestTraversal:
    def test_bfs_depths(self, db):
        build_social(db)
        # User 3's network is user 2 and, two hops out, user 1; of their
        # likes (101, 103) only 103 is not already user 3's.
        assert db.recommend(3, "friend", "likes", depth=2) == [(103, 1)]

    def test_bfs_depth_limit(self, db):
        build_social(db)
        # At depth 1 only user 2 is in user 1's network.
        assert db.recommend(1, "friend", "likes", depth=1) == [(101, 1)]

    def test_recommendation_ranks_by_endorsements(self, db):
        build_social(db)
        # User 1's network (2 and 3) likes 101 twice, 102 once; 103 is
        # already liked by user 1 and must be excluded.
        recs = db.recommend(1, "friend", "likes", depth=2)
        assert recs == [(101, 2), (102, 1)]

    def test_cycle_terminates(self, db):
        a = db.create_node("User", {})
        b = db.create_node("User", {})
        db.create_edge(a["id"], "friend", b["id"], directed=False)
        db.create_edge(b["id"], "likes", a["id"])
        assert db.recommend(a["id"], "friend", "likes", depth=10) == [(a["id"], 1)]
