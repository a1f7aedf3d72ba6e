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

from repro.runtime.workers import SubscriberWorkerPool
from tests.durability.test_restore import build_pipeline


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
    assert sub.audit_replication().in_sync
    rows = SubDoc.__mapper__._do_where({}, None, None)
    assert sorted(row["value"] for row in rows) == [2, 3, 100, 101]


def test_give_up_never_applies_past_the_generation_gate(tmp_path):
    """A pool gives up on a generation-2 message that the gate holds
    back behind a stuck generation-1 one. The heal drains generation 1,
    against generation 1's counters, before it enters generation 2:
    nothing of the new generation lands before the flush."""
    eco, pub, sub, _, PubDoc, SubDoc = build_pipeline(tmp_path)
    with pub.controller():
        doc = PubDoc.create(name="doc", value=1)
    sub.subscriber.drain()
    eco.broker.drop_next(1)
    with pub.controller():
        for value in (2, 3):  # 2 is lost: 3 waits for it
            doc.value = value
            doc.save()
    pub.recover_publisher_version_store()
    with pub.controller():
        doc.value = 4
        doc.save()
    queue = sub.subscriber.queue
    old, new = queue.pop(timeout=0), queue.pop(timeout=0)
    assert (old.generation, new.generation) == (1, 2)
    queue.nack(old)
    queue.nack(new)  # the new-generation message is one delivery ahead
    assert queue.pop(timeout=0) is new
    queue.nack(new)

    pool = SubscriberWorkerPool(sub, workers=1, wait_timeout=0.01, max_deliveries=3)
    with pool:
        assert pool.wait_until_idle(timeout=20)
    (gave_up,) = eco.recorder.events("worker.gave_up")
    assert gave_up.data["uids"] == [new.uid]
    assert sub.subscriber.generations["pub"] == 2
    # The generation-1 write applied (forced), then the flush, then the
    # generation-2 row landed.
    assert eco.metrics.value("subscriber.sub.processed") == 2
    assert sub.audit_replication().in_sync
    assert sub.subscriber.stuck_dependencies() == {}
    with pub.controller():
        doc.value = 5
        doc.save()
    assert sub.subscriber.drain() == 1
    rows = SubDoc.__mapper__._do_where({}, None, None)
    assert [row["value"] for row in rows] == [5]
