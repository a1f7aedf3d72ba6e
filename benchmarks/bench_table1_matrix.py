"""Table 1: DB types and vendors supported by Synapse.

Exercises every supported engine as a publisher and as a subscriber
(where the paper supports it — Elasticsearch/Neo4j/RethinkDB are
subscriber-only in Table 3) and prints the measured support matrix.
"""

from __future__ import annotations

from benchmarks.common import emit, format_table
from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.columnar import CassandraLike
from repro.databases.document import MongoLike, RethinkDBLike, TokuMXLike
from repro.databases.graph import Neo4jLike
from repro.databases.relational import MySQLLike, OracleLike, PostgresLike
from repro.databases.search import ElasticsearchLike

ENGINES = [
    ("PostgreSQL", lambda n: PostgresLike(n), "Relational", True),
    ("MySQL", lambda n: MySQLLike(n), "Relational", True),
    ("Oracle", lambda n: OracleLike(n), "Relational", True),
    ("MongoDB", lambda n: MongoLike(n), "Document", True),
    ("TokuMX", lambda n: TokuMXLike(n), "Document", True),
    ("RethinkDB", lambda n: RethinkDBLike(n), "Document", False),
    ("Cassandra", lambda n: CassandraLike(n), "Columnar", True),
    ("Elasticsearch", lambda n: ElasticsearchLike(n), "Search", False),
    ("Neo4j", lambda n: Neo4jLike(n), "Graph", False),
]

ROUNDTRIP_OBJECTS = 10


def roundtrip(pub_factory, sub_factory, tag: str) -> bool:
    eco = Ecosystem()
    eco.service(f"pub-{tag}", database=pub_factory(f"pub-{tag}-db"))
    eco.service(f"sub-{tag}", database=sub_factory(f"sub-{tag}-db"))
    _, pub, sub, Item = build_replicated_pair(
        eco, model="Item", pub=f"pub-{tag}", sub=f"sub-{tag}"
    )
    SubItem = sub.registry["Item"]
    items = [Item.create(name=f"item{i}") for i in range(ROUNDTRIP_OBJECTS)]
    items[0].update(name="renamed")
    items[1].destroy()
    sub.subscriber.drain()
    ok = (
        SubItem.count() == ROUNDTRIP_OBJECTS - 1
        and SubItem.find(items[0].id).name == "renamed"
    )
    return ok


def test_table1_support_matrix(benchmark):
    publishers = [(n, f) for n, f, _t, can_pub in ENGINES if can_pub]
    rows = []
    results = {}
    for sub_name, sub_factory, db_type, can_pub in ENGINES:
        row = [db_type, sub_name, "Y" if can_pub else "-"]
        ok_all = True
        for pub_name, pub_factory in publishers:
            ok = roundtrip(pub_factory, sub_factory, f"{pub_name}-{sub_name}")
            results[(pub_name, sub_name)] = ok
            ok_all = ok_all and ok
        row.append("Y" if ok_all else "FAIL")
        rows.append(row)
    emit(format_table(
        "Table 1 — supported engines (measured: every publisher x every "
        "subscriber round-trips create/update/delete)",
        ["type", "vendor stand-in", "pub?", "sub? (all pairs verified)"],
        rows,
    ))
    assert all(results.values())
    assert len(results) == len(publishers) * len(ENGINES)

    benchmark(lambda: roundtrip(
        lambda n: PostgresLike(n), lambda n: MongoLike(n), "kernel"
    ))
