"""A give-up heals (§6.5).

A worker pool that gives up on a message past its delivery budget acks
it and repairs the subscriber — the audit-driven bootstrap scoped to
what diverged — so the given-up write and any lost write it waited on
land, the counters catch up, and the next write of the object lands
with no second give-up. A decommissioned queue heals the same way.
"""

import time

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.runtime.workers import SubscriberWorkerPool


def lose_one_update(mode):
    """One lost update of a doc, then four more updates and a create in
    the same controller: every later write of the doc waits on the lost
    one."""
    eco, pub, sub, Doc = build_replicated_pair(
        fields={"name": str, "value": int}, mode=mode
    )
    with pub.controller():
        doc = Doc.create(name="doc", value=0)
    sub.subscriber.drain()
    eco.broker.drop_next(1)
    with pub.controller():
        for value in range(1, 6):
            doc.value = value
            doc.save()
        Doc.create(name="late", value=9)
    return eco, pub, sub, doc


@pytest.mark.parametrize("mode", ["causal", "global"])
def test_one_give_up_heals_the_lost_update(mode):
    eco, pub, sub, doc = lose_one_update(mode)
    pool = SubscriberWorkerPool(sub, workers=1, wait_timeout=0.05, max_deliveries=3)
    with pool:
        assert pool.wait_until_idle(timeout=20)
        assert eco.metrics.value("workers.sub.gave_up") == 1
        assert sub.audit_replication().in_sync
        assert sub.subscriber.stuck_dependencies() == {}

        with pub.controller():
            doc.value = 42
            doc.save()
        assert pool.wait_until_idle(timeout=20)
    # The next write landed by the workers alone: no second give-up.
    assert eco.metrics.value("workers.sub.gave_up") == 1
    assert sub.registry["Doc"].find(doc.id).value == 42
    assert sub.audit_replication().in_sync

    (gave_up,) = eco.recorder.events("worker.gave_up")
    assert gave_up.severity == "anomaly"
    assert len(gave_up.data["uids"]) == 1
    assert gave_up.data["objects_repaired"] >= 1
    assert gave_up.data["landed"] >= 1
    assert gave_up.data["stuck"] == {}


@pytest.mark.parametrize("mode", ["causal", "global"])
def test_a_heal_ends_bootstrap_mode_though_its_drain_left_messages_queued(mode, monkeypatch):
    """A create published after the heal's audit cannot apply in the
    heal's drain — the engine is down for it — so the drain nacks it
    back and the bootstrap stays in its forced mode; the heal ends it.
    The workers apply the create in order, and a write whose
    predecessor was lost waits."""
    eco, pub, sub, doc = lose_one_update(mode)
    subscriber = sub.subscriber
    drain = subscriber.drain
    heals = []

    def publish_then_drain_with_the_engine_down(*args, **kwargs):
        if not heals:
            with pub.controller():
                pub.registry["Doc"].create(name="during", value=1)
        heals.append(subscriber.bootstrapping)
        sub.database.faults.down = True
        try:
            return drain(*args, **kwargs)
        finally:
            sub.database.faults.down = False

    monkeypatch.setattr(subscriber, "drain", publish_then_drain_with_the_engine_down)
    pool = SubscriberWorkerPool(sub, workers=1, wait_timeout=0.05, max_deliveries=3)
    with pool:
        assert pool.wait_until_idle(timeout=20)
    # In global mode the queued create waits on ``__global__``, which a
    # bootstrap raises only over an empty queue: a second give-up heals it.
    assert eco.metrics.value("workers.sub.gave_up") >= 1
    assert heals[0]
    assert not subscriber.bootstrapping
    assert sub.audit_replication().in_sync
    assert [row.name for row in sub.registry["Doc"].where(name="during")] == ["during"]

    eco.broker.drop_next(1)
    with pub.controller():
        doc.value = 8
        doc.save()
    with pub.controller():
        doc.value = 9
        doc.save()
    assert not subscriber.process_message(subscriber.queue.pop())
    assert sub.registry["Doc"].find(doc.id).value == 5


def test_a_decommissioned_queue_is_recommissioned_even_when_nothing_diverged():
    """Everything the decommission cleared was deleted again at the
    publisher, so the audit is clean: the heal still brings the queue
    back, once for all four workers, and they keep popping."""
    eco, pub, sub, Doc = build_replicated_pair(Ecosystem(queue_limit=3))
    with pub.controller():
        docs = [Doc.create(name=f"doc-{i}") for i in range(5)]
        for doc in docs:
            doc.destroy()
    queue = sub.subscriber.queue
    assert queue.decommissioned

    pool = SubscriberWorkerPool(sub, workers=4, wait_timeout=0.05)
    with pool:
        deadline = time.monotonic() + 10
        while not eco.recorder.events("queue.decommissioned"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert not queue.decommissioned
        with pub.controller():
            Doc.create(name="after")
        assert pool.wait_until_idle(timeout=10)
        assert all(thread.is_alive() for thread in pool._threads)
    assert [row.name for row in sub.registry["Doc"].all()] == ["after"]
    # Every worker's pop saw the decommission; one heal brought it back.
    (healed,) = eco.recorder.events("queue.decommissioned")
    assert healed.data["objects_repaired"] == 0
