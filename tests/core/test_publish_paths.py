"""One publish path: what every front-end hands it, and what it hands back.

``SynapsePublisher._prepare`` is the only implementation of the §4.2
publisher algorithm; an ORM write, an ORM write inside ``begin()`` and
a raw write tailed by the CDC poller are thin entry points over it. The
first half checks that they mean the same thing on the wire. The second
pins the rule picked at each place the former copies of the algorithm
had drifted apart, and that a repair publishes nothing at all.
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.core import Ecosystem
from repro.core.delivery import CAUSAL, GLOBAL, GLOBAL_OBJECT, WEAK
from repro.core.dependencies import dep_name
from repro.databases.document import MongoLike, TokuMXLike
from repro.orm import Field, Model
from repro.runtime.tracing import (
    STAGE_COLLECT,
    STAGE_ENGINE_WRITE,
    STAGE_INTERCEPT,
    STAGE_REGISTER,
)


def build_publisher(mode=CAUSAL, clock=None):
    """A transactional-engine publisher with a probe queue bound to it."""
    eco = Ecosystem(clock=clock)
    pub = eco.service("pub", database=TokuMXLike("pub-db"), delivery_mode=mode)

    @pub.model(publish=["name", "score"], name="Doc")
    class Doc(Model):
        name = Field(str)
        score = Field(int, default=0)

    @pub.model(publish=["name"], name="User")
    class User(Model):
        name = Field(str)

    probe = eco.broker.bind("probe", "pub")
    return eco, pub, Doc, User, probe


def add_subscriber(eco, mode):
    sub = eco.service("sub", database=MongoLike("sub-db"))

    @sub.model(
        subscribe={"from": "pub", "fields": ["name", "score"], "mode": mode},
        name="Doc",
    )
    class SubDoc(Model):
        name = Field(str)
        score = Field(int, default=0)

    return sub, SubDoc


def popped(probe):
    """Everything the probe queue holds, acked, each with its trace (the
    ack detaches it)."""
    messages = []
    while len(probe):
        message = probe.pop()
        trace = message.trace
        probe.ack(message)
        message.trace = trace
        messages.append(message)
    return messages


# -- front-end parity ----------------------------------------------------------

def orm_immediate(pub, Doc):
    doc = Doc.create(name="a", score=1)
    doc.update(score=2)
    doc.destroy()


def orm_transactional(pub, Doc):
    with pub.database.begin():
        doc = Doc.create(name="a", score=1)
    with pub.database.begin():
        doc.update(score=2)
    with pub.database.begin():
        doc.destroy()


def raw_polled(pub, Doc):
    raw = pub.raw_session()
    row = raw.insert(Doc, {"name": "a", "score": 1})
    raw.update(Doc, row["id"], {"score": 2})
    raw.delete(Doc, row["id"])
    pub.cdc_poller.poll()


FRONT_ENDS = {
    "orm": orm_immediate, "begin": orm_transactional, "cdc": raw_polled,
}


def wire_meaning(message):
    return (
        message.operations, message.dependencies,
        message.external_dependencies, message.generation,
    )


@pytest.mark.parametrize("mode", [CAUSAL, GLOBAL, WEAK])
def test_front_ends_mean_the_same_thing_on_the_wire(mode):
    """The same create/update/delete of one row yields the same three
    messages whichever front-end carried it (uid, ``cdc`` and
    ``published_at`` aside)."""
    seen = {}
    for name, drive in FRONT_ENDS.items():
        eco, pub, Doc, _User, probe = build_publisher(mode)
        pub.enable_outbox()
        drive(pub, Doc)  # outside any controller: no context to note a write on
        messages = popped(probe)
        assert [m.operations[0]["operation"] for m in messages] == [
            "create", "update", "delete",
        ]
        assert all((m.cdc is not None) == (name == "cdc") for m in messages)
        gate = eco.hasher.hash(GLOBAL_OBJECT)
        assert all((gate in m.dependencies) == (mode == GLOBAL) for m in messages)
        seen[name] = [wire_meaning(m) for m in messages]
    assert seen["orm"] == seen["begin"] == seen["cdc"]


def test_front_ends_trace_the_same_publisher_stages():
    """Tracing on, every front-end reports the algorithm's stages; the
    engine-write span exists where the engine write runs inside it."""
    stages = {}
    for name, drive in FRONT_ENDS.items():
        eco, pub, Doc, _User, probe = build_publisher()
        eco.enable_tracing()
        pub.enable_outbox()
        drive(pub, Doc)
        for message in popped(probe):
            publisher_side = {
                stage for stage in message.trace.stages()
                if stage.startswith("publisher.")
            }
            assert stages.setdefault(name, publisher_side) == publisher_side
    shared = {STAGE_INTERCEPT, STAGE_COLLECT, STAGE_REGISTER}
    assert stages == {
        "orm": shared | {STAGE_ENGINE_WRITE}, "begin": shared, "cdc": shared,
    }


# -- the rule picked where the copies differed ---------------------------------

def tamper(SubDoc, row_id, **attrs):
    """Diverge a replica behind Synapse's back."""
    SubDoc.__mapper__._do_update(row_id, attrs)


def test_repair_collects_no_dependencies_not_even_the_gate():
    """A repair re-states objects: the subscriber fast-forwards object
    counters only, so a repair that bumped ``__global__`` would leave a
    gate version nobody applies and wedge every global subscriber."""
    eco, pub, Doc, _User, _probe = build_publisher(GLOBAL)
    sub, SubDoc = add_subscriber(eco, GLOBAL)
    docs = [Doc.create(name=f"d{i}") for i in range(3)]
    assert sub.subscriber.drain() == 3
    tamper(SubDoc, docs[1].id, name="tampered")
    store = pub.publisher_version_store
    gate = store.current(GLOBAL_OBJECT)

    result = sub.repair_replication()
    assert result.objects_repaired == 1 and result.verified_in_sync
    assert store.current(GLOBAL_OBJECT) == gate

    docs[0].update(name="after")
    assert sub.subscriber.drain() == 1
    assert SubDoc.find(docs[0].id).name == "after"
    assert sub.subscriber.stuck_dependencies() == {}


def test_repair_keeps_its_own_accounting():
    eco, pub, Doc, _User, probe = build_publisher()
    sub, SubDoc = add_subscriber(eco, CAUSAL)
    doc = Doc.create(name="d")
    sub.subscriber.drain()
    tamper(SubDoc, doc.id, name="tampered")
    published = pub.publisher.messages_published
    overhead_samples = pub.publisher.overhead.count

    result = sub.repair_replication()
    assert result.landed == 1
    assert len(popped(probe)) == 1  # the create; the repair sent nothing
    assert pub.publisher.messages_published == published
    assert pub.publisher.overhead.count == overhead_samples
    assert eco.metrics.snapshot("repair.")["repair.sub.applied_objects"] == 1


def test_overhead_covers_the_engine_write_on_the_immediate_path_only():
    """``publisher.<app>.overhead`` is Fig 12a's "Synapse time"; it has
    always included the engine write of a plain ORM write and never that
    of a 2PC or raw write, which happen before the algorithm runs."""
    clock = VirtualClock()
    eco, pub, Doc, _User, _probe = build_publisher(clock=clock)
    pub.enable_outbox()
    mapper = Doc.__mapper__
    engine_insert = mapper._do_insert

    def slow_insert(attrs):
        clock.advance(1.0)  # the only time that passes anywhere
        return engine_insert(attrs)

    mapper._do_insert = slow_insert
    overhead = pub.publisher.overhead

    Doc.create(name="immediate")
    assert (overhead.count, overhead.total()) == (1, 1.0)
    with pub.database.begin():
        Doc.create(name="two-phase")
    assert (overhead.count, overhead.total()) == (2, 1.0)
    pub.raw_session().insert(Doc, {"name": "raw"})
    pub.cdc_poller.poll()
    assert (overhead.count, overhead.total()) == (3, 1.0)


def test_auto_id_create_learns_its_object_dependency_from_the_write():
    """The id does not exist before the engine write; the object still
    ends up the *first* write dependency, ahead of the session user."""
    eco, pub, Doc, User, probe = build_publisher()
    user = User.create(name="ann")
    popped(probe)
    with pub.controller(user=user) as ctx:
        doc = Doc.create(name="d")
        assert ctx.prev_write_dep == dep_name("pub", "docs", doc.id)
    (message,) = popped(probe)
    hasher = eco.hasher
    assert set(message.dependencies) == {
        hasher.hash(dep_name("pub", "docs", doc.id)),
        hasher.hash(dep_name("pub", "users", user.id)),
    }


@pytest.mark.parametrize("transactional", [False, True], ids=["orm", "begin"])
def test_note_write_gets_the_first_write_dependency(transactional):
    eco, pub, Doc, User, probe = build_publisher()
    user = User.create(name="ann")
    with pub.controller(user=user) as ctx:
        if transactional:
            with pub.database.begin():
                first = Doc.create(name="first")
                Doc.create(name="second")
            assert len(popped(probe)) == 2  # the user, then one for both docs
        else:
            first = Doc.create(name="first")
        first_dep = dep_name("pub", "docs", first.id)
        assert ctx.prev_write_dep == first_dep
        # ...and the next write chains on it as a read dependency.
        popped(probe)
        user.update(name="bob")
        (chained,) = popped(probe)
        assert eco.hasher.hash(first_dep) in chained.dependencies
