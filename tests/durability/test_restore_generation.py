"""Restore across a publisher generation bump (§4.4).

A process that dies after ``recover_publisher_version_store()`` and
before its subscriber applies any new-generation message leaves the
new generation's deliveries as ``pub`` records with no ``gen`` flush
behind them. Their versions restart at 0, below the old generation's
counters, so a counter check alone calls them applied and the restore
drops them. A message of a generation the subscriber has not entered
cannot have been applied (the gate flushes first): each undrained case
below fails without that rule.
"""

from __future__ import annotations

import pytest

from tests.durability.test_restore import build_pipeline, replicas_in_sync


def wound(data_dir, drained, snapshot):
    """4 creates drained, an optional snapshot, the bump, 2 updates
    (drained or not); the process then just stops existing."""
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(data_dir)
    with pub.controller():
        docs = [PubDoc.create(name=f"doc-{i}", value=i) for i in range(4)]
    sub.subscriber.drain()
    if snapshot:
        manager.snapshot()
    assert pub.recover_publisher_version_store() == 2
    with pub.controller():
        for i, doc in enumerate(docs[:2]):
            doc.value = 100 + i
            doc.save()
    if drained:
        sub.subscriber.drain()


@pytest.mark.parametrize("snapshot", [False, True], ids=["log", "snapshot"])
@pytest.mark.parametrize("drained", [False, True], ids=["undrained", "drained"])
def test_restore_keeps_new_generation_deliveries(tmp_path, drained, snapshot):
    wound(tmp_path, drained, snapshot)

    eco, pub, sub, manager, _, SubDoc = build_pipeline(tmp_path)
    report = manager.restore()
    assert not report.unrecoverable
    assert report.requeued == (0 if drained else 2)
    assert pub.current_generation() == 2
    sub.subscriber.drain()
    assert sub.subscriber.generations["pub"] == 2
    assert replicas_in_sync(pub, sub)
    rows = SubDoc.__mapper__._do_where({}, None, None)
    assert sorted(row["value"] for row in rows) == [2, 3, 100, 101]


def test_give_up_never_applies_past_the_generation_gate(tmp_path):
    """The pool's give-up path asks the same question: a newer-generation
    message it forces must not land before the gate has flushed the old
    generation's counters."""
    eco, pub, sub, _, PubDoc, SubDoc = build_pipeline(tmp_path)
    with pub.controller():
        doc = PubDoc.create(name="doc", value=1)
    sub.subscriber.drain()
    pub.recover_publisher_version_store()
    with pub.controller():
        doc.value = 2
        doc.save()
    message = sub.subscriber.queue.pop(timeout=0)
    assert message.generation == 2
    sub.subscriber.force_apply(message)
    assert sub.subscriber.generations.get("pub", 1) == 1
    rows = SubDoc.__mapper__._do_where({}, None, None)
    assert [row["value"] for row in rows] == [1]
