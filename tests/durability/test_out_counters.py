"""An ``out`` record carries the counters its own bump left.

The counters are read inside the version-store script that bumped them
(``register_operation``) and ride on the message to the log. Re-read
when the record is appended — after the write locks are released — they
can already hold a later publish's bump. If that later publish never
reaches the log (the process dies between its bump and its ship step),
restore adopts a counter no logged message accounts for: the next write
of the object carries a version its subscribers never reach, and stays
queued for ever.
"""

from __future__ import annotations

import shutil
import threading

from repro.core.dependencies import dep_name
from tests.durability.test_restore import build_pipeline


def prepare_update(pub, model_cls, row_id, value):
    """The publisher algorithm up to a built, versioned message for one
    update of ``row_id``; returns its ship step, not yet run."""
    fields = pub.published_fields_for(model_cls)
    mapper = model_cls.__mapper__
    return pub.publisher._prepare(
        [("update", model_cls, {"id": row_id}, fields)],
        perform=lambda: mapper._do_update(row_id, {"value": value}),
    )


def out_records(manager):
    manager.wal.sync()
    return [rec for _, rec in manager.wal.replay() if rec["t"] == "out"]


class TestOutRecordCounters:
    def test_a_bump_that_never_shipped_does_not_wedge_the_restored_object(
        self, tmp_path
    ):
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        doc = PubDoc.create(name="doc", value=0)
        sub_a.subscriber.drain()
        ship_first = prepare_update(pub_a, PubDoc, doc.id, 1)
        # Bumped, never shipped: the process dies before its ship step.
        prepare_update(pub_a, PubDoc, doc.id, 2)
        ship_first()
        sub_a.subscriber.drain()
        dep = dep_name("pub", "docs", doc.id)
        assert out_records(mgr_a)[-1]["vs"] == {dep: [2, 2]}

        eco_b, pub_b, sub_b, mgr_b, PubDoc_b, SubDoc_b = build_pipeline(tmp_path)
        assert not mgr_b.restore().unrecoverable
        sub_b.subscriber.drain()
        assert pub_b.publisher_version_store.current(dep) == (2, 2)
        PubDoc_b.find(doc.id).update(value=3)
        sub_b.subscriber.drain()
        assert sub_b.subscriber.stuck_dependencies() == {}
        assert [row["value"] for row in SubDoc_b.__mapper__._do_where({}, None, None)] == [3]
        assert sub_b.audit_replication().in_sync

    def test_a_snapshot_waits_for_the_out_record_of_a_bump_it_holds(
        self, tmp_path
    ):
        """A snapshot taken on another thread while a publish sits
        between its bump and its ship step must not capture that bump
        before the ``out`` record is logged: a process killed before
        the record would restore a counter no logged message carries,
        and the object's next write would wait for it for ever."""
        live, killed = tmp_path / "live", tmp_path / "killed"
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(live)
        doc = PubDoc.create(name="doc", value=0)
        sub_a.subscriber.drain()
        ship = prepare_update(pub_a, PubDoc, doc.id, 1)
        snapshotter = threading.Thread(target=mgr_a.snapshot)
        snapshotter.start()
        snapshotter.join(0.3)
        # Killed here, before the out record: the data dir as it is now
        # is what the process restarts from.
        shutil.copytree(live, killed)
        ship()
        snapshotter.join(timeout=30)
        assert not snapshotter.is_alive() and mgr_a.snapshots.ids() == [1]

        eco_b, pub_b, sub_b, mgr_b, PubDoc_b, SubDoc_b = build_pipeline(killed)
        assert not mgr_b.restore().unrecoverable
        sub_b.subscriber.drain()
        PubDoc_b.find(doc.id).update(value=2)
        sub_b.subscriber.drain()
        assert sub_b.subscriber.stuck_dependencies() == {}
        assert [row["value"] for row in SubDoc_b.__mapper__._do_where({}, None, None)] == [2]
        assert sub_b.audit_replication().in_sync

    def test_a_later_out_logged_alone_wedges_until_repair(self, tmp_path):
        """The window this leaves open, declared: ``out`` records are
        appended in ship order, not bump order. A process that dies
        after a later publish's ``out`` and before an earlier one's
        restores a message carrying the earlier bump, which waits for
        it for ever — until targeted repair lands the row and the
        counter (docs/architecture.md, "Failure model")."""
        eco_a, pub_a, sub_a, mgr_a, PubDoc, _ = build_pipeline(tmp_path)
        doc = PubDoc.create(name="doc", value=0)
        sub_a.subscriber.drain()
        prepare_update(pub_a, PubDoc, doc.id, 1)  # dies before its ship step
        prepare_update(pub_a, PubDoc, doc.id, 2)()
        mgr_a.wal.sync()

        eco_b, pub_b, sub_b, mgr_b, PubDoc_b, SubDoc_b = build_pipeline(tmp_path)
        assert not mgr_b.restore().unrecoverable
        sub_b.subscriber.drain()
        dep = dep_name("pub", "docs", doc.id)
        assert sub_b.subscriber.stuck_dependencies() == {dep: (2, 1)}
        assert sub_b.repair_replication().verified_in_sync
        assert sub_b.subscriber.stuck_dependencies() == {}
        PubDoc_b.find(doc.id).update(value=3)
        sub_b.subscriber.drain()
        assert [row["value"] for row in SubDoc_b.__mapper__._do_where({}, None, None)] == [3]
        assert sub_b.audit_replication().in_sync
