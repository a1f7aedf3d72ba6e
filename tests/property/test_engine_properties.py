"""Property-based tests on the storage engines (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.databases.columnar import CassandraLike, ColumnFamily
from repro.databases.document import MongoLike
from repro.databases.relational import (
    Column,
    Index,
    Integer,
    PostgresLike,
    TableSchema,
    Text,
)
from repro.databases.relational.expression import where_from_dict
from repro.databases.search import ElasticsearchLike, Term, analyze
from repro.versionstore import HashRing

# -- strategies -------------------------------------------------------------

names = st.sampled_from(["ada", "bob", "carol", "dave", "erin"])
small_ints = st.integers(min_value=-5, max_value=5)
rows = st.lists(
    st.tuples(names, small_ints), min_size=0, max_size=30
)


class TestRelationalPlanner:
    """The index path and the scan path must agree on every predicate."""

    @staticmethod
    def _build(data, with_index):
        db = PostgresLike("p")
        indexes = [Index("by_name", ["name"])] if with_index else []
        db.create_table(
            TableSchema(
                "users",
                [Column("name", Text()), Column("age", Integer())],
                indexes=indexes,
            )
        )
        for name, age in data:
            db.insert("users", {"name": name, "age": age})
        return db

    @given(data=rows, target=names)
    @settings(max_examples=60, deadline=None)
    def test_index_equals_scan(self, data, target):
        with_idx = self._build(data, True)
        without_idx = self._build(data, False)
        where = where_from_dict({"name": target})
        a = with_idx.select("users", where=where)
        b = without_idx.select("users", where=where)
        assert a == b
        # And both agree with brute force.
        expected = [r for r in without_idx.select("users") if r["name"] == target]
        assert a == expected

    @given(data=rows, age=small_ints, target=names)
    @settings(max_examples=60, deadline=None)
    def test_compound_predicates_match_python_semantics(self, data, age, target):
        db = self._build(data, True)
        where = where_from_dict({"age": age, "name": target})
        got = {r["id"] for r in db.select("users", where=where)}
        expected = {
            r["id"]
            for r in db.select("users")
            if r["age"] == age and r["name"] == target
        }
        assert got == expected

    @given(data=rows, target=names)
    @settings(max_examples=40, deadline=None)
    def test_update_then_select_consistent(self, data, target):
        db = self._build(data, True)
        db.update("users", where_from_dict({"name": target}), {"age": 99})
        updated = db.select("users", where=where_from_dict({"age": 99}))
        assert {r["name"] for r in updated} <= {target}
        assert not any(
            r["name"] == target and r["age"] != 99 for r in db.select("users")
        )


class TestColumnarLSM:
    """The LSM read path must behave like a plain dict of latest writes,
    regardless of flush/compaction boundaries."""

    ops = st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=1, max_value=8),   # key
            st.integers(min_value=0, max_value=99),  # value
        ),
        min_size=0,
        max_size=60,
    )

    @given(ops=ops, flush_threshold=st.integers(min_value=1, max_value=16))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_model(self, ops, flush_threshold):
        db = CassandraLike("c", flush_threshold=flush_threshold)
        db.create_table(ColumnFamily("t"))
        reference = {}
        for kind, key, value in ops:
            if kind == "put":
                db.put("t", {"id": key, "v": value})
                reference[key] = value
            else:
                db.delete("t", (key,))
                reference.pop(key, None)
        for key in range(1, 9):
            row = db.get_by_id("t", key)
            if key in reference:
                assert row == {"id": key, "v": reference[key]}
            else:
                assert row is None
        assert db.count("t") == len(reference)


class TestDocumentStore:
    docs = st.lists(
        st.fixed_dictionaries(
            {"name": names, "n": small_ints,
             "tags": st.lists(st.sampled_from(["x", "y", "z"]), max_size=3)}
        ),
        min_size=0, max_size=25,
    )

    @given(docs=docs, target=names)
    @settings(max_examples=60, deadline=None)
    def test_find_equals_brute_force(self, docs, target):
        db = MongoLike("m")
        for doc in docs:
            db.insert_one("c", dict(doc))
        got = {d["_id"] for d in db.find("c", {"name": target})}
        expected = {d["_id"] for d in db.find("c") if d["name"] == target}
        assert got == expected

    @given(docs=docs, tag=st.sampled_from(["x", "y", "z"]))
    @settings(max_examples=60, deadline=None)
    def test_array_membership(self, docs, tag):
        db = MongoLike("m")
        for doc in docs:
            db.insert_one("c", dict(doc))
        got = {d["_id"] for d in db.find("c", {"tags": tag})}
        expected = {d["_id"] for d in db.find("c") if tag in d["tags"]}
        assert got == expected

    @given(docs=docs)
    @settings(max_examples=40, deadline=None)
    def test_index_never_changes_results(self, docs):
        """The ``_id`` point lookup agrees with a scan on every filter
        that names an ``_id``, present or not."""
        db = MongoLike("m")
        for doc in docs:
            db.insert_one("c", dict(doc))
        everything = db.find("c")
        for doc_id in range(len(docs) + 2):
            for extra in ({}, {"name": "ada"}):
                query = {"_id": doc_id, **extra}
                expected = [
                    d for d in everything
                    if d["_id"] == doc_id and all(d[k] == v for k, v in extra.items())
                ]
                assert db.find("c", query) == expected


class TestSearchEngine:
    texts = st.lists(
        st.text(
            alphabet=st.sampled_from("abc xyz CAT dog "), min_size=0, max_size=30
        ),
        min_size=0, max_size=20,
    )

    @given(texts=texts, term=st.sampled_from(["cat", "dog", "abc", "xyz"]))
    @settings(max_examples=60, deadline=None)
    def test_term_query_equals_token_scan(self, texts, term):
        db = ElasticsearchLike("e")
        db.create_index("docs", analyzers={"body": "simple"})
        for text in texts:
            db.index_doc("docs", {"body": text})
        hits = {doc["_id"] for doc, _ in db.search("docs", Term("body", term),
                                                   size=None)}
        expected = {
            doc["_id"]
            for doc, _ in db.search("docs", size=None)
            if term in analyze(doc["body"], "simple")
        }
        assert hits == expected

    @given(texts=texts)
    @settings(max_examples=40, deadline=None)
    def test_delete_removes_from_every_posting(self, texts):
        db = ElasticsearchLike("e")
        db.create_index("docs")
        ids = [db.index_doc("docs", {"body": t})["_id"] for t in texts]
        for doc_id in ids:
            db.delete_doc("docs", doc_id)
        assert db.count("docs") == 0
        for term in ["cat", "dog", "abc", "xyz"]:
            assert db.search("docs", Term("body", term)) == []


class TestHashRing:
    keys = st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=80,
                    unique=True)

    @given(keys=keys)
    @settings(max_examples=50, deadline=None)
    def test_removal_only_remaps_removed_nodes_keys(self, keys):
        """A ring without ``n2`` places every key ``n2`` did not own
        where the full ring does."""
        full = HashRing(["n1", "n2", "n3", "n4"])
        without = HashRing(["n1", "n3", "n4"])
        for key in keys:
            before, after = full.node_for(key), without.node_for(key)
            if before != "n2":
                assert after == before
            else:
                assert after != "n2"

    @given(keys=keys)
    @settings(max_examples=50, deadline=None)
    def test_assignment_total_and_deterministic(self, keys):
        ring = HashRing(["a", "b"])
        assert all(ring.node_for(k) in ("a", "b") for k in keys)
        assert [ring.node_for(k) for k in keys] == [ring.node_for(k) for k in keys]
