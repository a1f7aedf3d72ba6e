"""Regression: a repair leaves nothing that wedges the next write.

One case each for the wedges targeted repair once left behind while
reporting digest-equal rows (ROADMAP (17)): the ``__global__`` gate
counter in global mode (a), a causal session user's counter (b), an
old-generation write queued across a publisher generation bump (c), and
a write already queued behind the loss, in causal and global mode, and
a write of the new generation lost as well. After each repair the next
write lands by ``drain()`` alone. A write still in transit when a repair
runs — queued, unacked, or versioned and not yet shipped — is applied,
not discarded.
"""

from __future__ import annotations

import pytest

from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model
from repro.repair import ReplicationAuditor
from tests.durability.test_restore import build_pipeline
from tests.repair.test_repair_verdict import lose_one_create, next_write_lands


def healed(tmp_path, mode, before, updates=0, **shape):
    pub, sub, manager, PubDoc, session, result = lose_one_create(
        tmp_path, mode, before, 0, updates, **shape
    )
    try:
        assert result.verified_in_sync, result.summary_lines()
        assert next_write_lands(pub, sub, PubDoc, session)
    finally:
        manager.close()


def test_17a_global_mode_gate_counter(tmp_path):
    healed(tmp_path, "global", before=1)


def test_17b_causal_session_user(tmp_path):
    """Two creates in one user's controllers, the second lost: the
    user's next write waits on the user's counter unless the repair
    raised it."""
    healed(tmp_path, "causal", before=1, user=True)


def test_17c_causal_across_a_generation_bump(tmp_path):
    """A lost create, an update of the same doc, then a publisher
    generation bump: the repair drains the old-generation update before
    entering the new generation instead of leaving it waiting on a
    counter the bump reset."""
    healed(tmp_path, "causal", before=0, updates=1, bump=True)


@pytest.mark.parametrize("mode", ["causal", "global"])
def test_a_write_queued_behind_the_loss(tmp_path, mode):
    """The session user's next write is already queued when the repair
    runs, waiting on a counter no divergent row carries (the user's, and
    ``__global__``): the queue is not idle, yet the repair must raise
    that counter once its drain has applied what it could."""
    healed(tmp_path, mode, before=1, user=True, queued=True)


@pytest.mark.parametrize("mode,user", [("causal", True), ("global", False)])
def test_a_write_lost_in_a_generation_not_yet_entered(tmp_path, mode, user):
    """The publisher's version store dies behind the wedged queue, and
    the first write of the new generation is lost too. The audit
    measured the old generation's counters, so its deficits do not
    name the session user's or ``__global__``: entering the new
    generation, the repair reads every counter instead."""
    healed(tmp_path, mode, before=1, user=user, bump=True, queued=True, lose_queued=True)


@pytest.mark.parametrize("heal", ["repair", "model-scope"])
@pytest.mark.parametrize("mode", ["causal", "global"])
def test_a_write_versioned_before_a_repair_and_shipped_after_lands(mode, heal, monkeypatch):
    """A publisher write bumps another doc's counter before the heal,
    and its message ships only after the heal's drain found the queue
    idle (the heal runs between the bump and the broker publish). That
    doc is outside the scope — the repair's ids, or a bootstrap of
    another model, which reads every counter: raising its counter to the
    snapshot would ack the update as a duplicate and leave the old row."""
    eco = Ecosystem()
    pub = eco.service("pub", database=PostgresLike("pub-db"), delivery_mode=mode)

    @pub.model(publish=["value"], name="Doc")
    class PubDoc(Model):
        value = Field(int, default=0)

    @pub.model(publish=["value"], name="Tag")
    class PubTag(Model):
        value = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))
    subscribe = {"from": "pub", "fields": ["value"], "mode": mode}

    @sub.model(subscribe=subscribe, name="Doc")
    class SubDoc(Model):
        value = Field(int, default=0)

    @sub.model(subscribe=subscribe, name="Tag")
    class SubTag(Model):
        value = Field(int, default=0)

    docs = [PubDoc.create(value=i) for i in range(2)]
    PubTag.create(value=9)
    sub.subscriber.drain()
    SubDoc.__mapper__._do_update(docs[0].id, {"value": -5})  # diverge
    report = ReplicationAuditor(sub).audit()
    publish = eco.broker.publish

    def heal_then_publish(message):
        if heal == "repair":
            sub.repair_replication(report=report)
        else:
            bootstrap_subscriber(sub, scope={("pub", "Tag"): None})
        publish(message)

    monkeypatch.setattr(eco.broker, "publish", heal_then_publish)
    docs[1].update(value=42)
    sub.subscriber.drain()
    assert SubDoc.find(docs[1].id).value == 42
    assert sub.subscriber.stuck_dependencies() == {}


@pytest.mark.parametrize("held", [False, True], ids=["queued", "unacked"])
@pytest.mark.parametrize("mode", ["causal", "global"])
def test_a_write_in_transit_during_a_repair_is_applied(tmp_path, mode, held):
    """The repair is driven by an audit taken before another doc's
    update was published, so that doc is outside the repair's scope. Its
    message is in transit, not lost — queued, or popped by a worker that
    has not acked it yet — and must be applied: raising that doc's
    counter to the snapshot while the message is still to be applied
    would ack the update as a duplicate and leave the old row."""
    eco, pub, sub, manager, PubDoc, SubDoc = build_pipeline(tmp_path, mode=mode)
    try:
        with pub.controller():
            docs = [PubDoc.create(name=f"d{i}", value=i) for i in range(3)]
        sub.subscriber.drain()
        SubDoc.__mapper__._do_update(docs[0].id, {"value": -5})  # diverge
        report = ReplicationAuditor(sub).audit()
        assert report.divergent_for("pub", "Doc") == [docs[0].id]
        with pub.controller():
            docs[1].update(value=42)
        queue = sub.subscriber.queue
        popped = queue.pop_many(1) if held else []

        result = sub.repair_replication(report=report)
        assert result.repaired == {("pub", "Doc"): [docs[0].id]}
        for message in popped:  # the worker finishes its delivery
            assert sub.subscriber.process_message(message)
            queue.ack(message)
        assert SubDoc.__mapper__._do_find(docs[1].id)["value"] == 42
        assert eco.metrics.value("subscriber.sub.duplicates") == 0
        assert sub.audit_replication().in_sync
        assert result.verified_in_sync is not held
    finally:
        manager.close()
