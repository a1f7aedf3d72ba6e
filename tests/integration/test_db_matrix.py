"""Table 1 as a test: the full publisher x subscriber engine matrix.

Every publisher-capable engine replicates creates, updates and deletes
into every engine (including itself), with ids preserved.
"""

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.columnar import CassandraLike
from repro.databases.document import MongoLike, RethinkDBLike, TokuMXLike
from repro.databases.graph import Neo4jLike
from repro.databases.relational import MySQLLike, OracleLike, PostgresLike
from repro.databases.search import ElasticsearchLike

PUBLISHERS = {
    "postgresql": PostgresLike,
    "mysql": MySQLLike,
    "oracle": OracleLike,
    "mongodb": MongoLike,
    "tokumx": TokuMXLike,
    "cassandra": CassandraLike,
}

SUBSCRIBERS = {
    **PUBLISHERS,
    "rethinkdb": RethinkDBLike,
    "elasticsearch": ElasticsearchLike,
    "neo4j": Neo4jLike,
}


@pytest.mark.parametrize("pub_name", sorted(PUBLISHERS))
@pytest.mark.parametrize("sub_name", sorted(SUBSCRIBERS))
def test_engine_pair_roundtrip(pub_name, sub_name):
    eco = Ecosystem()
    eco.service("pub", database=PUBLISHERS[pub_name]("pub-db"))
    eco.service("sub", database=SUBSCRIBERS[sub_name]("sub-db"))
    _, pub, sub, Doc = build_replicated_pair(eco, {"title": str, "score": int})
    SubDoc = sub.registry["Doc"]
    docs = [Doc.create(title=f"doc {i}", score=i) for i in range(5)]
    docs[0].update(score=100)
    docs[1].destroy()
    sub.subscriber.drain()

    assert SubDoc.count() == 4
    assert SubDoc.find(docs[0].id).score == 100
    assert SubDoc.find_by(id=docs[1].id) is None
    assert {d.title for d in SubDoc.all()} == \
        {f"doc {i}" for i in (0, 2, 3, 4)}
