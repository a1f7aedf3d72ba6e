"""A local delivery is logged once, in its publish's ``out`` record.

The ``out`` record names the local queues the message was delivered to
(``q``); restore derives one ``pub`` per name, and the records that
follow take back what the live queue never kept: a ``shed`` record by
its ``uid``, a ``coal`` record by the uid it absorbed, and a queue that
was decommissioned when the ``out`` was logged drops its ``pub``. Only
a forwarded delivery, whose ``out`` record is in another process's log,
is logged as a ``pub``. Each case checks that the state a crash
interrupts equals the state restore rebuilds (``capture_state``), as
the conformance harness's restore-equivalence invariant does.
"""

from __future__ import annotations

import json
import sys
import threading
import zlib

import pytest

from repro.broker.message import canonical_json
from repro.broker.queue import SubscriberQueue
from repro.durability.wal import WAL_WIRE_VERSION, decode_record
from repro.errors import WALCorrupt
from repro.runtime.flow import FlowConfig
from tests.durability.test_restore import build_pipeline


def records(manager):
    manager.wal.sync()
    return [rec for _, rec in manager.wal.replay()]


def restored_state(data_dir, **pipeline):
    """Abandon the live process (a crash) and restore a second one over
    its data dir: the state restore rebuilds."""
    eco, pub, sub, manager, _, _ = build_pipeline(data_dir, **pipeline)
    assert not manager.restore().unrecoverable
    return manager.capture_state(), eco


def assert_restores_what_it_held(manager, data_dir, **pipeline):
    manager.wal.sync()
    live = manager.capture_state()
    restored, eco = restored_state(data_dir, **pipeline)
    assert restored == live
    return eco


def test_a_shed_message_is_not_restored_into_the_queue(tmp_path):
    pipeline = dict(mode="weak", flow=FlowConfig(capacity=6))
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path, **pipeline)
    with pub.controller():
        for i in range(12):
            PubDoc.create(name=f"flood-{i}", value=i)
    assert eco.metrics.value("flow.sub.shed") == 8
    shed = [rec for rec in records(manager) if rec["t"] == "shed"]
    outs = [rec for rec in records(manager) if rec["t"] == "out"]
    # Every out names the queue, and each shed record names the message
    # the queue never kept.
    assert len(shed) == 8 and all(rec["q"] == ["sub"] for rec in outs)
    assert {rec["uid"] for rec in shed} < {rec["m"]["uid"] for rec in outs}
    assert_restores_what_it_held(manager, tmp_path, **pipeline)


def test_a_coalesced_publish_restores_inside_its_survivor(tmp_path):
    pipeline = dict(flow=FlowConfig(batch_max=4))
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path, **pipeline)
    with pub.controller():
        doc = PubDoc.create(name="doc", value=0)
    for value in (1, 2):
        with pub.controller():
            doc.update(value=value)
    assert eco.metrics.value("flow.sub.coalesced") == 2
    assert len(sub.subscriber.queue) == 1
    eco_b = assert_restores_what_it_held(manager, tmp_path, **pipeline)
    assert len(eco_b.broker.queue_for("sub")) == 1


def test_a_max_size_kill_restores_decommissioned_and_empty(tmp_path):
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path, queue_limit=3)
    with pub.controller():
        for i in range(4):  # the fourth is one over the limit
            PubDoc.create(name=f"doc-{i}", value=i)
    queue = sub.subscriber.queue
    assert queue.decommissioned and len(queue) == 0
    assert queue.total_published == 4
    assert_restores_what_it_held(manager, tmp_path, queue_limit=3)


def test_a_publish_to_a_decommissioned_queue_is_not_restored(tmp_path):
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path, queue_limit=3)
    with pub.controller():
        for i in range(7):  # three more after the kill: dropped
            PubDoc.create(name=f"doc-{i}", value=i)
    outs = [rec for rec in records(manager) if rec["t"] == "out"]
    assert all(rec["q"] == ["sub"] for rec in outs)
    assert sub.subscriber.queue.total_published == 4
    eco_b = assert_restores_what_it_held(manager, tmp_path, queue_limit=3)
    assert len(eco_b.broker.queue_for("sub")) == 0


def test_a_dropped_routing_stays_lost(tmp_path):
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path)
    with pub.controller():
        kept = PubDoc.create(name="kept", value=1)
    eco.broker.drop_next(1)
    with pub.controller():
        PubDoc.create(name="lost", value=2)
    assert eco.metrics.value("broker.dropped") == 1
    outs = [rec for rec in records(manager) if rec["t"] == "out"]
    # The drop was settled before the out record was written.
    assert [rec["q"] for rec in outs] == [["sub"], []]
    eco_b = assert_restores_what_it_held(manager, tmp_path)
    (queued,) = eco_b.broker.queue_for("sub").peek_all()
    assert queued.operations[0]["id"] == kept.id


def test_a_forwarded_delivery_keeps_its_pub_record(tmp_path):
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path)
    # Another shard publishes; its queue for "sub" lives here.
    far, far_pub, _, _, FarDoc, _ = build_pipeline(tmp_path / "far")
    far.broker.attach(placement=(lambda name: False, eco.broker.deliver_remote))
    with far_pub.controller():
        FarDoc.create(name="far", value=1)
    (pub_rec,) = [rec for rec in records(manager) if rec["t"] == "pub"]
    assert pub_rec["q"] == "sub"
    assert not [rec for rec in records(manager) if rec["t"] == "out"]
    eco_b = assert_restores_what_it_held(manager, tmp_path)
    (queued,) = eco_b.broker.queue_for("sub").peek_all()
    assert queued.uid == pub_rec["m"]["uid"]


def test_a_snapshot_between_an_out_record_and_its_enqueue_waits(
    tmp_path, monkeypatch
):
    """The snapshot pins the log after the ``out`` record, so it must
    hold the delivery that record names: it waits for the publish step
    to end."""
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path)
    real_publish = SubscriberQueue.publish
    snapshotter = threading.Thread(target=manager.snapshot)

    def publish_beside_a_snapshot(queue, message):
        if not snapshotter.is_alive() and not manager.snapshots.ids():
            snapshotter.start()
            snapshotter.join(0.3)
        real_publish(queue, message)

    monkeypatch.setattr(SubscriberQueue, "publish", publish_beside_a_snapshot)
    with pub.controller():
        PubDoc.create(name="doc", value=1)
    snapshotter.join(timeout=30)
    assert not snapshotter.is_alive()
    monkeypatch.undo()
    assert manager.snapshots.ids() == [1]
    assert len(sub.subscriber.queue) == 1
    eco_b = assert_restores_what_it_held(manager, tmp_path)
    assert len(eco_b.broker.queue_for("sub")) == 1


def test_the_snapshot_at_a_publish_steps_end_does_not_wait_on_it(tmp_path):
    """``maybe_snapshot`` runs after the step has closed its own
    publish: a cadence of one append snapshots at the end of every
    publish step, and each snapshot holds the delivery it logged."""
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path, snapshot_every=1)
    with pub.controller():
        for i in range(3):
            PubDoc.create(name=f"doc-{i}", value=i)
    assert eco.metrics.value("durability.snapshot.count") == 3
    assert len(sub.subscriber.queue) == 3
    eco_b = assert_restores_what_it_held(manager, tmp_path, snapshot_every=1)
    assert len(eco_b.broker.queue_for("sub")) == 3


def test_snapshots_beside_publishing_threads_restore_what_they_held(tmp_path):
    """Four threads publish while a fifth snapshots in a loop, with a
    short switch interval: every thread finishes, no publish is left
    open, and restore rebuilds the live state."""
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path)
    errors, done = [], threading.Event()

    def publish(n):
        try:
            for i in range(25):
                with pub.controller():
                    PubDoc.create(name=f"doc-{n}-{i}", value=i)
        except Exception as exc:  # pragma: no cover - the assertion below
            errors.append(exc)

    def snapshot():
        while not done.is_set():
            manager.snapshot()

    publishers = [threading.Thread(target=publish, args=(n,)) for n in range(4)]
    snapshotter = threading.Thread(target=snapshot)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in [snapshotter, *publishers]:
            thread.start()
        for thread in publishers:
            thread.join(timeout=60)
        done.set()
        snapshotter.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in [snapshotter, *publishers])
    assert manager._open == 0 and manager.snapshots.ids()
    assert len(sub.subscriber.queue) == 100
    eco_b = assert_restores_what_it_held(manager, tmp_path)
    assert len(eco_b.broker.queue_for("sub")) == 100


# -- a v1 log: out records without queues, pub records, uid-less sheds ------

def v1_line(rec):
    """One WAL line as a v1 writer made it."""
    inner = canonical_json(rec)
    crc = zlib.crc32(inner.encode("utf-8")) & 0xFFFFFFFF
    return f'{{"crc":{crc},"rec":{inner},"v":1}}'


def as_v1(v2_records):
    """The same history as a v1 writer logged it: no ``q`` on an
    ``out``, a ``pub`` for each delivery its queue admitted (not one it
    shed or merged into a queued survivor), at once after the ``out``,
    and no ``uid`` on a ``shed``."""
    not_admitted = {(rec["q"], rec["uid"]) for rec in v2_records if rec["t"] == "shed"} | {
        (rec["q"], uid) for rec in v2_records if rec["t"] == "coal" for uid in rec["absorbed"]
    }
    log = []
    for rec in v2_records:
        rec = dict(rec)
        if rec["t"] == "out":
            queues = rec.pop("q")
            log.append(rec)
            log.extend(
                {"t": "pub", "q": name, "m": rec["m"]} for name in queues
                if (name, rec["m"]["uid"]) not in not_admitted
            )
            continue
        if rec["t"] == "shed":
            del rec["uid"]
        log.append(rec)
    return log


def test_a_v1_log_restores_as_it_did(tmp_path):
    pipeline = dict(mode="weak", flow=FlowConfig(capacity=6))
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(
        tmp_path / "v2", **pipeline
    )
    with pub.controller():
        doc = PubDoc.create(name="hot", value=0)
        doc.update(value=1)  # coalesced
        for i in range(12):
            PubDoc.create(name=f"flood-{i}", value=i)  # some shed
    sub.subscriber.drain()
    with pub.controller():
        PubDoc.create(name="queued", value=2)
    v2 = records(manager)
    assert {"coal", "shed", "apply", "ack"} <= {rec["t"] for rec in v2}
    live = manager.capture_state()

    v1_dir = tmp_path / "v1"
    v1 = as_v1(v2)
    assert [rec for rec in v1 if rec["t"] == "pub"]
    eco_b, _, _, manager_b, _, _ = build_pipeline(v1_dir, **pipeline)
    with open(manager_b.wal.segment_path(1), "w", encoding="utf-8") as fh:
        fh.write("".join(v1_line(rec) + "\n" for rec in v1))
    assert not manager_b.restore().unrecoverable
    assert manager_b.capture_state() == live


def test_a_record_from_a_newer_wire_version_is_refused():
    assert WAL_WIRE_VERSION == 2
    line = json.loads(v1_line({"t": "ack", "q": "sub", "uid": "pub:1"}))
    line["v"] = 3
    with pytest.raises(WALCorrupt, match="newer"):
        decode_record(json.dumps(line))
