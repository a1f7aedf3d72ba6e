"""Regression tests for three restore-path bugs found by inspection.

1. ``coal`` records now carry the absorbed uids, and replay drops them
   from pending — an absorbed message whose ``pub`` record is also on
   the log must not be re-injected on restore (its dependency
   increments already ride inside the survivor; re-delivery wedges
   causal delivery on versions nobody will ever bump again).
2. a ``shed`` record is appended *inside* ``flow._shed_lock`` — snapshotting the
   ledger under the lock but appending after releasing it lets a
   concurrent ledger writer append first, and last-writer-wins replay
   then restores the stale ledger.
3. ``defer`` rotations are logged — restore used to rebuild the queue
   in original publish order, resurrecting the chain-head-buried
   ordering the rotation had already fixed.

Each test fails with its fix reverted.
"""

from __future__ import annotations

import threading

from repro.apps import build_replicated_pair
from repro.broker.message import Message
from repro.core import Ecosystem
from repro.core.dependencies import dep_name
from repro.runtime.flow import FlowConfig
from repro.runtime.flow.coalesce import merge_into
from repro.runtime.interleave import (
    QUEUE_ACKED,
    QUEUE_COALESCED,
    QUEUE_PUBLISHED,
    QUEUE_SHED,
)


def build_pipeline(data_dir, mode="causal", flow=None):
    eco = Ecosystem()
    if flow is not None:
        eco.enable_flow(flow)
    _, pub, sub, PubDoc = build_replicated_pair(eco, {"name": str, "value": int}, mode=mode)
    manager = eco.enable_durability(data_dir=str(data_dir))
    return eco, pub, sub, manager, PubDoc, sub.registry["Doc"]


class TestCoalescedAbsorbedReplay:
    def test_absorbed_pub_record_is_not_reinjected(self, tmp_path):
        """Forge the WAL shape the fix defends against: an absorbed
        message with its *own* ``pub`` record, merged into a survivor
        that was then acked. Replay must honour the ``coal`` record's
        absorbed list — without it the absorbed message is requeued on
        every restore, and its dependency versions (emitted after the
        survivor's publisher-side bumps) can never be satisfied: a
        permanent dep-wait wedge under causal delivery."""
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        with pub_a.controller():
            doc = PubDoc.create(name="doc", value=0)
        sub_a.subscriber.drain()

        hashed = eco_a.hasher.hash(dep_name("pub", "docs", doc.id))

        def update_op(value):
            return {
                "operation": "update",
                "types": ["Doc"],
                "id": doc.id,
                "attributes": {"name": "doc", "value": value},
            }

        survivor = Message(
            app="pub", operations=[update_op(1)], dependencies={hashed: 1},
            published_at=0.0,
        )
        absorbed = Message(
            app="pub", operations=[update_op(9)], dependencies={hashed: 2},
            published_at=0.0,
        )
        mgr_a.log_transition(QUEUE_PUBLISHED, ("sub", survivor))
        mgr_a.log_transition(QUEUE_PUBLISHED, ("sub", absorbed))
        merge_into(survivor, absorbed)
        mgr_a.log_transition(QUEUE_COALESCED, ("sub", absorbed, survivor))
        mgr_a.log_transition(QUEUE_ACKED, ("sub", survivor))
        mgr_a.wal.sync()
        # Crash: the process stops existing.

        eco_b, pub_b, sub_b, mgr_b, _, _ = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert not report.unrecoverable
        assert report.requeued == 0, (
            "absorbed message was re-injected from its surviving pub record"
        )
        assert len(sub_b.subscriber.queue) == 0
        assert sub_b.subscriber.drain() == 0  # no re-delivery
        assert sub_b.audit_replication().in_sync

    def test_organic_coalesce_ack_restore_digest_equality(self, tmp_path):
        """End to end over the real flow pipeline: publish, coalesce,
        drain (ack), crash, restore — replicas digest-equal and nothing
        is re-delivered."""
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, mode="weak", flow=FlowConfig(capacity=64)
        )
        with pub_a.controller():
            doc = PubDoc.create(name="doc", value=0)
        with pub_a.controller():
            doc.value = 1
            doc.save()
        with pub_a.controller():
            doc.value = 2
            doc.save()  # coalesces into the queued value=1 update
        assert eco_a.metrics.value("flow.sub.coalesced") >= 1
        sub_a.subscriber.drain()
        mgr_a.wal.sync()

        eco_b, pub_b, sub_b, mgr_b, _, SubDoc = build_pipeline(
            tmp_path, mode="weak", flow=FlowConfig(capacity=64)
        )
        report = mgr_b.restore()
        assert not report.unrecoverable
        assert report.requeued == 0
        assert sub_b.subscriber.drain() == 0  # no re-delivery
        assert sub_b.audit_replication().in_sync
        assert SubDoc.__mapper__.find(doc.id)["value"] == 2


class _ProbedShedLock:
    """Drop-in for ``QueueFlow._shed_lock`` that parks one designated
    thread after its Nth release, opening the exact window the fix
    closes: ledger snapshotted, lock gone, append still pending."""

    def __init__(self, victim_exit_no):
        self._lock = threading.Lock()
        self.victim = None
        self._exits = 0
        self.victim_exit_no = victim_exit_no
        self.released = threading.Event()
        self.resume = threading.Event()

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        if threading.get_ident() == self.victim:
            self._exits += 1
            if self._exits == self.victim_exit_no:
                self.released.set()
                assert self.resume.wait(timeout=5)
        return False


class TestShedLedgerAppendOrdering:
    def test_interleaved_sheds_replay_the_complete_ledger(self, tmp_path):
        """Two threads shed for the same app; the first is parked right
        after it leaves the shed-lock critical section. With the append
        inside the lock its record is already on the log by then, so
        the second shed's complete ledger lands last and replay (last
        writer wins) restores both deficits. With the append outside
        the lock the parked thread writes its stale snapshot *after*
        the complete one — replay silently drops the second deficit."""
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, mode="weak", flow=FlowConfig(capacity=64)
        )
        queue = sub_a.subscriber.queue
        flow = queue.flow
        dep_a = eco_a.hasher.hash(dep_name("pub", "docs", "a"))
        dep_b = eco_a.hasher.hash(dep_name("pub", "docs", "b"))
        shed_a = Message(
            app="pub", operations=[], dependencies={dep_a: 1}, published_at=0.0
        )
        shed_b = Message(
            app="pub", operations=[], dependencies={dep_b: 1}, published_at=0.0
        )
        # One pending message keeps the queue alive through restore (the
        # shed ledger is re-adopted while re-injecting survivors).
        pending = Message(
            app="pub", operations=[], dependencies={}, published_at=0.0
        )
        mgr_a.log_transition(QUEUE_PUBLISHED, ("sub", pending))

        probe = _ProbedShedLock(victim_exit_no=2)
        flow._shed_lock = probe

        def first_shed():
            probe.victim = threading.get_ident()
            flow._record_shed(shed_a)  # probe exit #1
            mgr_a.log_transition(QUEUE_SHED, ("sub", shed_a, flow))  # exit #2: park here

        thread = threading.Thread(target=first_shed)
        thread.start()
        assert probe.released.wait(timeout=5)
        # Interleaved writer: records its deficit and appends while the
        # first shed is parked between snapshot and (reverted) append.
        flow._record_shed(shed_b)
        mgr_a.log_transition(QUEUE_SHED, ("sub", shed_b, flow))
        probe.resume.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        mgr_a.wal.sync()

        eco_b, pub_b, sub_b, mgr_b, _, _ = build_pipeline(
            tmp_path, mode="weak", flow=FlowConfig(capacity=64)
        )
        report = mgr_b.restore()
        assert not report.unrecoverable
        ledger = sub_b.subscriber.queue.flow.shed_ledger().get("pub", {})
        assert ledger.get(dep_a) == 1
        assert ledger.get(dep_b) == 1, (
            "stale shed-ledger snapshot appended after the complete one; "
            "replay restored a ledger missing the second shed's deficit"
        )


class TestDeferRotationReplay:
    def _chain_messages(self, eco, doc_ids):
        """A causal chain over distinct objects: message i writes doc i
        and requires doc i-1's counter at 1 (bumped when message i-1
        applies)."""
        hashes = [
            eco.hasher.hash(dep_name("pub", "docs", doc_id))
            for doc_id in doc_ids
        ]
        messages = []
        for i, doc_id in enumerate(doc_ids):
            deps = {hashes[i]: 0}
            if i > 0:
                deps[hashes[i - 1]] = 1
            messages.append(
                Message(
                    app="pub",
                    operations=[{
                        "operation": "create",
                        "types": ["Doc"],
                        "id": doc_id,
                        "attributes": {"name": f"d{i}", "value": i},
                    }],
                    dependencies=deps,
                    published_at=0.0,
                )
            )
        return messages

    def test_restart_mid_rotation_drains_within_one_revolution(self, tmp_path):
        """A 40-deep causal chain published head-last (the chain head
        buried at the back — the worker-livelock ordering), rotated by
        defer until the head surfaced, then killed before any apply.
        The restored queue must preserve the rotation: every message
        pops exactly once. Without the ``defer`` records restore falls
        back to publish order, re-burying the head — the drain needs a
        whole extra revolution of re-defers."""
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        doc_ids = list(range(1, 41))
        head, *rest = self._chain_messages(eco_a, doc_ids)
        queue = sub_a.subscriber.queue
        for message in rest:
            queue.publish(message)
        queue.publish(head)  # buried: 38 dependents sit in front of it
        # The rotation the worker pools perform on dependency stalls:
        # every buried dependent pops, cannot apply, rotates to the
        # back; the head surfaces within one revolution. Killed right
        # after the rotation, before anything applied or acked.
        for _ in range(len(rest)):
            message = queue.pop(timeout=0)
            assert not sub_a.subscriber.process_message(message)
            queue.defer(message)
        mgr_a.wal.sync()

        eco_b, pub_b, sub_b, mgr_b, _, SubDoc = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert not report.unrecoverable
        assert report.requeued == 40
        restored = sub_b.subscriber.queue
        pops = 0
        while len(restored):
            message = restored.pop(timeout=0)
            pops += 1
            assert pops <= 120, "restored queue does not converge"
            if sub_b.subscriber.process_message(message):
                restored.ack(message)
            else:
                restored.defer(message)
        assert pops == 40, (
            f"{pops} pops to drain 40 messages: restore re-buried the "
            "chain head instead of preserving the defer rotation"
        )
        for i, doc_id in enumerate(doc_ids):
            row = SubDoc.__mapper__.find(doc_id)
            assert row is not None and row["value"] == i
