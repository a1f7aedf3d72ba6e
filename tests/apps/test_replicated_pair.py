"""``build_replicated_pair`` declares only what the ecosystem it is given
still lacks: a second call fans out, a service declared first keeps its
engine, and the shape a lifecycle test drives — a fan-out to two
engines, an unpublished session user, durability and the outbox armed —
is builder calls plus what the caller arms."""

from __future__ import annotations

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.databases.search import ElasticsearchLike
from repro.orm import Field, Model

FIELDS = {"name": str, "value": int}


def test_a_second_call_fans_out_and_a_predeclared_service_keeps_its_engine():
    eco = Ecosystem()
    search = eco.service("search", database=ElasticsearchLike("search-db"))
    eco, pub, sub, Doc = build_replicated_pair(eco, FIELDS)
    again = build_replicated_pair(eco, FIELDS, sub="search")
    assert again == (eco, pub, search, Doc)
    assert isinstance(pub.database, MongoLike)
    assert isinstance(sub.database, PostgresLike)
    assert sorted(eco.services) == ["pub", "search", "sub"]
    doc = Doc.create(name="ada", value=1)
    eco.drain_all()
    for replica in (sub, search):
        assert replica.registry["Doc"].find(doc.id).value == 1


def lifecycle_shape(data_dir):
    """A MongoLike ``pub`` with an unpublished session ``User``, fanned
    out to the builder's PostgresLike ``sub`` and a ``search`` replica
    declared first on a search engine; durability and the outbox armed."""
    eco = Ecosystem()
    eco.service("search", database=ElasticsearchLike("search-db"))
    eco, pub, sub, Doc = build_replicated_pair(eco, FIELDS)
    _, _, search, _ = build_replicated_pair(eco, FIELDS, sub="search")

    @pub.model(name="User")
    class User(Model):
        name = Field(str)

    manager = eco.enable_durability(data_dir=str(data_dir), fsync="off")
    pub.enable_outbox()
    return eco, pub, (sub, search), manager, Doc, User


def replica_state(replica):
    rows = replica.registry["Doc"].__mapper__._do_where({}, None, None)
    return (
        sorted(rows, key=lambda row: row["id"]),
        replica.subscriber_version_store.snapshot(),
    )


def test_the_lifecycle_shape_converges_and_restores(tmp_path):
    eco, pub, replicas, manager, Doc, User = lifecycle_shape(tmp_path)
    ada = User.create(name="ada")
    with pub.controller(ada):
        docs = [Doc.create(name=f"doc-{i}", value=i) for i in range(3)]
        docs[0].update(value=10)
        docs[2].destroy()
    raw = pub.raw_session()
    raw.insert(Doc, {"name": "raw", "value": 7})
    raw.update(Doc, docs[1].id, {"value": 11})
    eco.drain_all()
    for replica in replicas:
        assert replica.audit_replication().in_sync
        assert replica.subscriber.stuck_dependencies() == {}
    live = {replica.name: replica_state(replica) for replica in replicas}
    assert live["sub"][0] and live["sub"] == live["search"]
    manager.wal.sync()
    # Crash: the ecosystem is abandoned unclosed.

    _, _, restored, manager_b, _, _ = lifecycle_shape(tmp_path)
    assert not manager_b.restore().unrecoverable
    assert {replica.name: replica_state(replica) for replica in restored} == live
