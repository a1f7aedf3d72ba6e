"""DurabilityManager restore: queues, ledgers, the applied rule, uid
sequencing, snapshot compaction and the unrecoverable fallback — each
scenario wounds one ecosystem and resurrects a second over the same data
dir."""

from __future__ import annotations

import json
import os
import shutil

from repro.apps import build_replicated_pair
from repro.core import Ecosystem


def build_pipeline(data_dir, mode="causal", flow=None, queue_limit=None, **durability):
    """One pub -> sub pipeline with durability armed into ``data_dir``."""
    eco = Ecosystem(queue_limit=queue_limit) if queue_limit else Ecosystem()
    if flow is not None:
        eco.enable_flow(flow)
    _, pub, sub, PubDoc = build_replicated_pair(eco, {"name": str, "value": int}, mode=mode)
    manager = eco.enable_durability(data_dir=str(data_dir), **durability)
    return eco, pub, sub, manager, PubDoc, sub.registry["Doc"]


def assert_one_survivor_of_three(pub, sub, value):
    """The restored queue holds one message: the survivor of a create
    and two updates of one object, carrying the three writes' bumps.
    Drained, it leaves the replicas and their counters equal."""
    (survivor,) = sub.subscriber.queue.peek_all()
    assert survivor.operations[0]["attributes"]["value"] == value
    increments = survivor.counter_increments()
    assert increments and set(increments.values()) == {3}
    sub.subscriber.drain()
    assert sub.audit_replication().in_sync
    assert sub.subscriber_version_store.snapshot() == (
        pub.publisher_version_store.snapshot()
    )


class TestRestorePipeline:
    def test_drained_run_restores_to_equal_replicas(self, tmp_path):
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        with pub_a.controller():
            docs = [PubDoc.create(name=f"doc-{i}", value=i) for i in range(6)]
        with pub_a.controller():
            docs[0].value = 100
            docs[0].save()
        sub_a.subscriber.drain()
        # No close, no snapshot: the process just stops existing.

        eco_b, pub_b, sub_b, mgr_b, _, SubDoc = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert not report.unrecoverable
        assert report.replayed > 0
        assert report.requeued == 0  # everything was acked pre-crash
        sub_b.subscriber.drain()
        assert sub_b.audit_replication().in_sync
        rows = SubDoc.__mapper__._do_where({}, None, None)
        assert len(rows) == 6
        assert {row["value"] for row in rows} == {100, 1, 2, 3, 4, 5}

    def test_unacked_backlog_is_requeued_and_converges(self, tmp_path):
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        with pub_a.controller():
            for i in range(5):
                PubDoc.create(name=f"doc-{i}", value=i)
        # Crash with the whole backlog pending: nothing drained.

        eco_b, pub_b, sub_b, mgr_b, _, _ = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert report.requeued == 5
        assert len(sub_b.subscriber.queue) == 5
        sub_b.subscriber.drain()
        assert sub_b.audit_replication().in_sync

    def test_applied_uids_deduplicate_replayed_tail(self, tmp_path):
        """apply logged, ack crash-lost: the requeued message must be
        recognised as already applied by its object's counter — acked
        as a duplicate, not applied twice."""
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        with pub_a.controller():
            doc = PubDoc.create(name="doc", value=1)
        sub_a.subscriber.drain()
        # Forge the crash window: drop the final ack record from the log.
        mgr_a.close()
        path = mgr_a.wal.segment_path(1)
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        assert '"t": "ack"' in lines[-1] or '"t":"ack"' in json.dumps(
            json.loads(lines[-1])["rec"], separators=(",", ":")
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])

        eco_b, pub_b, sub_b, mgr_b, _, SubDoc = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert report.requeued == 1  # no ack on record: still pending
        assert report.applied == 1
        (requeued,) = sub_b.subscriber.queue.peek_all()
        assert sub_b.subscriber.applied(requeued)
        sub_b.subscriber.drain()
        assert eco_b.metrics.value("subscriber.sub.duplicates") == 1
        assert eco_b.metrics.value("subscriber.sub.processed") == 0
        rows = SubDoc.__mapper__._do_where({}, None, None)
        assert len(rows) == 1 and rows[0]["value"] == 1
        assert sub_b.audit_replication().in_sync
        assert sub_b.subscriber_version_store.snapshot() == (
            pub_b.publisher_version_store.snapshot()
        )

    def test_restored_uid_sequence_does_not_collide(self, tmp_path):
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        with pub_a.controller():
            for i in range(4):
                PubDoc.create(name=f"doc-{i}", value=i)
        sub_a.subscriber.drain()

        eco_b, pub_b, sub_b, mgr_b, PubDocB, _ = build_pipeline(tmp_path)
        mgr_b.restore()
        seen = {rec["m"]["uid"] for _, rec in mgr_b.wal.replay() if "m" in rec}
        assert len(seen) == 4
        with pub_b.controller():
            PubDocB.create(name="fresh", value=9)
        fresh_uid = sub_b.subscriber.queue._items[0].uid
        assert fresh_uid not in seen
        sub_b.subscriber.drain()
        assert sub_b.audit_replication().in_sync

    def test_decommissioned_queue_restores_decommissioned(self, tmp_path):
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, queue_limit=3
        )
        with pub_a.controller():
            for i in range(8):  # sails past the kill cliff
                PubDoc.create(name=f"doc-{i}", value=i)
        assert eco_a.broker.queue_for("sub").decommissioned

        eco_b, pub_b, sub_b, mgr_b, _, _ = build_pipeline(
            tmp_path, queue_limit=3
        )
        mgr_b.restore()
        assert eco_b.broker.queue_for("sub").decommissioned

    def test_snapshot_compacts_and_bounds_replay(self, tmp_path):
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, segment_records=8
        )
        with pub_a.controller():
            for i in range(10):
                PubDoc.create(name=f"doc-{i}", value=i)
        sub_a.subscriber.drain()
        segments_before = mgr_a.wal.segment_ids()
        snapshot_id = mgr_a.snapshot()
        assert snapshot_id == 1
        # Segments wholly below the pin are reclaimed.
        assert mgr_a.wal.segment_ids() == [segments_before[-1]]
        with pub_a.controller():
            PubDoc.create(name="post-snap", value=99)
        sub_a.subscriber.drain()

        eco_b, pub_b, sub_b, mgr_b, _, SubDoc = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert report.snapshot_id == 1
        # Only the post-snapshot tail replays, not all 11 writes.
        assert 0 < report.replayed < 11
        sub_b.subscriber.drain()
        assert sub_b.audit_replication().in_sync
        assert len(SubDoc.__mapper__._do_where({}, None, None)) == 11

    def test_auto_snapshot_cadence(self, tmp_path):
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, snapshot_every=6
        )
        with pub_a.controller():
            for i in range(12):
                PubDoc.create(name=f"doc-{i}", value=i)
        assert mgr_a.snapshots.ids(), "cadence never took a snapshot"

    def test_auto_snapshot_cadence_counts_the_subscriber_path(self, tmp_path):
        """Regression: the cadence was checked only where a publish
        logged its ``out`` record, so the appends of a drain never took
        a snapshot — 20 publishes and one drain made 80 appends and 0
        snapshots under ``snapshot_every=50``, and a process that only
        subscribes never compacted its log."""
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, snapshot_every=50
        )
        with pub_a.controller():
            for i in range(20):
                PubDoc.create(name=f"doc-{i}", value=i)
        assert mgr_a.snapshots.ids() == []  # 20 appends: one out each
        sub_a.subscriber.drain()
        assert eco_a.metrics.value("durability.wal.appends") == 60
        assert mgr_a.snapshots.ids() == [1]
        assert eco_a.metrics.value("durability.snapshot.count") == 1

        eco_b, pub_b, sub_b, mgr_b, _, _ = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert report.snapshot_id == 1 and report.replayed == 0
        assert sub_b.audit_replication().in_sync

    def test_snapshot_captures_counters_before_rows(self, tmp_path, monkeypatch):
        """The invariant that makes a replayed overlap safe to skip: a
        service's section reads its subscriber counters before any row,
        and an apply lands its rows before it bumps, so a snapshot
        holding an apply's bump holds its rows too."""
        eco_a, pub_a, sub_a, mgr_a, PubDoc, SubDoc = build_pipeline(tmp_path)
        with pub_a.controller():
            PubDoc.create(name="doc", value=1)
        sub_a.subscriber.drain()
        reads = []
        store = sub_a.subscriber_version_store
        counters = store.snapshot
        monkeypatch.setattr(
            store, "snapshot", lambda: reads.append("svs") or counters()
        )
        rows = SubDoc.__mapper__._do_where
        monkeypatch.setattr(
            SubDoc.__mapper__, "_do_where",
            lambda *args: reads.append("rows") or rows(*args),
        )
        sub_a.durable_state()
        assert reads == ["svs", "rows"]

    def test_v1_snapshot_window_is_ignored(self, tmp_path):
        """A snapshot written before the window was retired carries
        ``applied_uids`` under version 1: it still restores, the field
        is read and ignored, and nothing applies twice."""
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        with pub_a.controller():
            doc = PubDoc.create(name="doc", value=1)
        sub_a.subscriber.drain()
        mgr_a.snapshot()
        (path,) = [
            mgr_a.snapshots.path(sid) for sid in mgr_a.snapshots.ids()
        ]
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["manifest"]["snapshot_version"] == 2
        assert "applied_uids" not in payload["services"]["sub"]
        payload["manifest"]["snapshot_version"] = 1
        payload["services"]["sub"]["applied_uids"] = ["pub:1", "pub:bogus"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pub_a.controller():
            doc.value = 2
            doc.save()

        eco_b, pub_b, sub_b, mgr_b, _, SubDoc = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert report.snapshot_id == 1 and not report.unrecoverable
        assert "applied_uids" not in mgr_b.capture_state()["services"]["sub"]
        sub_b.subscriber.drain()
        rows = SubDoc.__mapper__._do_where({}, None, None)
        assert [row["value"] for row in rows] == [2]
        assert sub_b.audit_replication().in_sync
        assert sub_b.subscriber_version_store.snapshot() == (
            pub_b.publisher_version_store.snapshot()
        )

    def test_unrecoverable_log_keeps_snapshot_and_reports(self, tmp_path):
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        with pub_a.controller():
            for i in range(4):
                PubDoc.create(name=f"doc-{i}", value=i)
        sub_a.subscriber.drain()
        mgr_a.close()
        path = mgr_a.wal.segment_path(1)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[2] = lines[2].replace('"t"', '"x"', 1)  # mid-log corruption
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)

        eco_b, pub_b, sub_b, mgr_b, _, _ = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert report.unrecoverable
        assert report.error
        assert report.stale_services == ["pub", "sub"]
        assert eco_b.metrics.value("durability.unrecoverable") == 1


class TestRestoreWithFlow:
    def test_coalesced_survivor_round_trips(self, tmp_path):
        from repro.runtime.flow import FlowConfig

        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, flow=FlowConfig(batch_max=4)
        )
        with pub_a.controller():
            doc = PubDoc.create(name="doc", value=0)
        with pub_a.controller():
            doc.value = 7
            doc.save()  # adjacent: merges into the queued create
        assert eco_a.metrics.value("flow.sub.coalesced") == 1
        assert len(sub_a.subscriber.queue) == 1

        from repro.runtime.flow import FlowConfig as FC

        eco_b, pub_b, sub_b, mgr_b, _, SubDoc = build_pipeline(
            tmp_path, flow=FC(batch_max=4)
        )
        report = mgr_b.restore()
        assert report.requeued == 1  # the merged survivor, not two
        sub_b.subscriber.drain()
        rows = SubDoc.__mapper__._do_where({}, None, None)
        assert len(rows) == 1 and rows[0]["value"] == 7
        assert sub_b.audit_replication().in_sync

    def test_restored_survivor_coalesces_again(self, tmp_path):
        """A survivor restored from a snapshot absorbs the next write to
        its object; a second restore yields it once, carrying all three
        writes' bumps."""
        from repro.runtime.flow import FlowConfig

        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, flow=FlowConfig(batch_max=4)
        )
        with pub_a.controller():
            doc = PubDoc.create(name="doc", value=0)
        with pub_a.controller():
            doc.update(value=1)
        mgr_a.snapshot()

        eco_b, pub_b, sub_b, mgr_b, PubDocB, _ = build_pipeline(
            tmp_path, flow=FlowConfig(batch_max=4)
        )
        assert mgr_b.restore().requeued == 1
        with pub_b.controller():
            PubDocB.find(doc.id).update(value=2)
        assert eco_b.metrics.value("flow.sub.coalesced") == 1

        eco_c, pub_c, sub_c, mgr_c, _, _ = build_pipeline(
            tmp_path, flow=FlowConfig(batch_max=4)
        )
        assert mgr_c.restore().requeued == 1
        assert_one_survivor_of_three(pub_c, sub_c, value=2)

    def test_snapshot_between_two_merges(self, tmp_path):
        """The snapshot holds the survivor after its first merge; the
        tail's ``coal`` record of the second replaces its body."""
        from repro.runtime.flow import FlowConfig

        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, flow=FlowConfig(batch_max=4)
        )
        with pub_a.controller():
            doc = PubDoc.create(name="doc", value=0)
        with pub_a.controller():
            doc.update(value=1)
        mgr_a.snapshot()
        with pub_a.controller():
            doc.update(value=2)
        assert eco_a.metrics.value("flow.sub.coalesced") == 2

        eco_b, pub_b, sub_b, mgr_b, _, _ = build_pipeline(
            tmp_path, flow=FlowConfig(batch_max=4)
        )
        report = mgr_b.restore()
        assert report.snapshot_id == 1 and report.requeued == 1
        assert_one_survivor_of_three(pub_b, sub_b, value=2)

    def test_old_format_coal_records_restore_the_same(self, tmp_path):
        """A log written when a survivor carried its uid history: each
        ``coal`` record's ``absorbed`` lists every uid absorbed so far,
        and so does its body's ``coalesced_uids``. It restores to the
        pending message the current format restores to."""
        from repro.durability.wal import decode_record, encode_record
        from repro.runtime.flow import FlowConfig

        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path / "new", flow=FlowConfig(batch_max=4)
        )
        with pub_a.controller():
            doc = PubDoc.create(name="doc", value=0)
        for value in (1, 2):
            with pub_a.controller():
                doc.update(value=value)
        mgr_a.close()
        shutil.copytree(tmp_path / "new", tmp_path / "old")
        history = []
        for segment_id in mgr_a.wal.segment_ids():
            path = os.path.join(tmp_path / "old", os.path.relpath(
                mgr_a.wal.segment_path(segment_id), tmp_path / "new"
            ))
            with open(path, "r", encoding="utf-8") as fh:
                records = [decode_record(line) for line in fh if line.strip()]
            for rec in records:
                if rec["t"] == "coal":
                    history += rec["absorbed"]
                    rec["absorbed"] = list(history)
                    rec["m"] = dict(rec["m"], coalesced_uids=list(history))
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(encode_record(rec) + "\n" for rec in records)
        assert len(history) == 2

        pending = {}
        for layout in ("new", "old"):
            eco, pub, sub, mgr, _, _ = build_pipeline(
                tmp_path / layout, flow=FlowConfig(batch_max=4)
            )
            assert mgr.restore().requeued == 1
            (pending[layout],) = sub.subscriber.queue.peek_all()
            assert_one_survivor_of_three(pub, sub, value=2)
        assert pending["old"].to_wire() == pending["new"].to_wire()

    def test_shed_deficit_ledger_round_trips(self, tmp_path):
        from repro.runtime.flow import FlowConfig

        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(
            tmp_path, mode="weak", flow=FlowConfig(batch_max=4), queue_limit=6
        )
        # Flood with distinct creates (not coalescible) and never drain:
        # credits run out, and weak publishes past the watermark shed.
        for i in range(20):
            with pub_a.controller():
                PubDoc.create(name=f"flood-{i}", value=i)
        assert eco_a.metrics.value("flow.sub.shed") > 0
        ledger_a = sub_a.subscriber.queue.flow.shed_ledger()
        assert ledger_a

        eco_b, pub_b, sub_b, mgr_b, _, _ = build_pipeline(
            tmp_path, mode="weak", flow=FlowConfig(batch_max=4), queue_limit=6
        )
        mgr_b.restore()
        assert sub_b.subscriber.queue.flow.shed_ledger() == ledger_a
