"""CDC durability: the golden ``obx`` / ``cdc`` WAL records, the
``out`` record's piggybacked cursor, and cursor restore across a
process death mid-tail (docs/cdc.md, "Cursor durability")."""

from __future__ import annotations

import json

from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.durability.wal import decode_record
from repro.orm import Field, Model


def build_pipeline(data_dir, mode="causal"):
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"), delivery_mode=mode)

    @pub.model(publish=["name", "value"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        value = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(
        subscribe={"from": "pub", "fields": ["name", "value"], "mode": mode},
        name="Doc",
    )
    class SubDoc(Model):
        name = Field(str)
        value = Field(int, default=0)

    manager = eco.enable_durability(data_dir=str(data_dir))
    pub.enable_outbox()
    return eco, pub, sub, manager, PubDoc, SubDoc


def read_records(manager):
    path = manager.wal.segment_path(1)
    with open(path, "r", encoding="utf-8") as fh:
        return [decode_record(line.strip()) for line in fh if line.strip()]


class TestWALRecordsGolden:
    def test_obx_out_and_cdc_records_on_disk(self, tmp_path):
        eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path)
        row = pub.raw_session().insert(PubDoc, {"name": "ada", "value": 1})
        assert pub.cdc_poller.poll() == 1
        sub.subscriber.drain()
        manager.close()
        records = read_records(manager)

        (obx,) = [rec for rec in records if rec["t"] == "obx"]
        assert set(obx) == {"t", "svc", "e"}
        assert obx["svc"] == "pub"
        entry = dict(obx["e"])
        assert isinstance(entry.pop("committed_at"), float)
        assert entry == {
            "id": 1,
            "seq": 1,
            "v": 1,
            "kind": "create",
            "model": "Doc",
            "row_id": row["id"],
            "attributes": json.dumps(
                {"name": "ada", "value": 1}, sort_keys=True
            ),
        }

        # The publish's out record carries the piggybacked cursor: the
        # cursor advance is atomic with the counter capture, closing
        # the crash window between publish and checkpoint. It names the
        # local queue it was delivered to, and no pub record follows.
        (out,) = [rec for rec in records if rec["t"] == "out"]
        assert set(out) == {"t", "app", "m", "q", "vs", "cur"}
        assert out["q"] == ["sub"]
        assert not [rec for rec in records if rec["t"] == "pub"]
        assert out["cur"] == 1
        assert out["m"]["uid"] == "pub:cdc:1"
        assert out["m"]["cdc"] == 1

        # The explicit batch checkpoint keeps an idle tail's position
        # durable across compaction.
        assert [rec for rec in records if rec["t"] == "cdc"] == [
            {"t": "cdc", "svc": "pub", "cur": 1},
        ]

    def test_orm_writes_carry_no_cursor(self, tmp_path):
        eco, pub, sub, manager, PubDoc, _ = build_pipeline(tmp_path)
        with pub.controller():
            PubDoc.create(name="orm", value=1)
        sub.subscriber.drain()
        manager.close()
        (out,) = [rec for rec in read_records(manager) if rec["t"] == "out"]
        assert "cur" not in out
        assert "cdc" not in out["m"]


class TestRestoreResumesTail:
    def test_death_mid_tail_resumes_without_loss_or_dupes(self, tmp_path):
        """Four raw writes, two tailed, then the process stops existing.
        The restored process resumes the tail at the durable cursor:
        every write lands at the subscriber exactly once."""
        eco_a, pub_a, sub_a, mgr_a, PubDocA, _ = build_pipeline(tmp_path)
        raw = pub_a.raw_session()
        for i in range(4):
            raw.insert(PubDocA, {"name": f"doc-{i}", "value": i})
        assert pub_a.cdc_poller.poll(max_entries=2) == 2
        sub_a.subscriber.drain()
        # No close, no checkpointed shutdown: kill -9 semantics.

        eco_b, pub_b, sub_b, mgr_b, _, SubDocB = build_pipeline(tmp_path)
        report = mgr_b.restore()
        assert not report.unrecoverable
        assert mgr_b.cdc_cursors["pub"] == 2
        assert pub_b.cdc_poller.cursor == 2
        assert pub_b.cdc_poller.backlog() == 2  # outbox rows replayed too
        eco_b.drain_all()
        assert pub_b.cdc_poller.idle()
        rows = SubDocB.__mapper__._do_where({}, None, None)
        assert sorted(row["name"] for row in rows) == [
            "doc-0", "doc-1", "doc-2", "doc-3",
        ]
        assert sub_b.audit_replication().in_sync

    def test_new_raw_writes_never_collide_with_replayed_tail(self, tmp_path):
        eco_a, pub_a, sub_a, mgr_a, PubDocA, _ = build_pipeline(tmp_path)
        raw_a = pub_a.raw_session()
        for i in range(3):
            raw_a.insert(PubDocA, {"name": f"old-{i}", "value": i})
        eco_a.drain_all()

        eco_b, pub_b, sub_b, mgr_b, PubDocB, SubDocB = build_pipeline(tmp_path)
        mgr_b.restore()
        # resync() re-derived the next sequence from the restored rows.
        pub_b.raw_session().insert(PubDocB, {"name": "new", "value": 9})
        seqs = [
            entry["seq"]
            for entry in pub_b.outbox.mapper._do_where({}, None, None)
        ]
        assert sorted(seqs) == [1, 2, 3, 4]
        eco_b.drain_all()
        assert len(SubDocB.__mapper__._do_where({}, None, None)) == 4
        assert sub_b.audit_replication().in_sync

    def test_polled_creates_never_clobber_later_raw_updates(self, tmp_path):
        """An ``out`` record for a CDC message sits at *poll* position in
        the WAL, not commit position: if a raw update committed between
        the create and the poll, replaying the out record's attributes
        onto the publisher row would roll it back to the stale create.
        Publisher rows for CDC messages must restore from the obx
        records alone (which do sit at commit position)."""
        eco_a, pub_a, sub_a, mgr_a, PubDocA, _ = build_pipeline(tmp_path)
        with pub_a.controller():
            PubDocA.create(name="orm-0", value=0)
        raw = pub_a.raw_session()
        rows = [
            raw.insert(PubDocA, {"name": f"raw-{i}", "value": i})
            for i in range(5)
        ]
        raw.update(PubDocA, rows[0]["id"], {"name": "raw-0", "value": 100})
        raw.delete(PubDocA, rows[4]["id"])
        # Poll only the first three creates: their out records land in
        # the WAL *after* the obx records of the update and delete.
        assert pub_a.cdc_poller.poll(max_entries=3) == 3
        sub_a.subscriber.drain()
        mgr_a.wal.sync()
        # kill -9: abandon everything unclosed.

        eco_b, pub_b, sub_b, mgr_b, PubDocB, SubDocB = build_pipeline(tmp_path)
        assert not mgr_b.restore().unrecoverable
        eco_b.drain_all()
        pub_rows = sorted(
            (row["id"], row["name"], row["value"])
            for row in PubDocB.__mapper__._do_where({}, None, None)
        )
        sub_rows = sorted(
            (row["id"], row["name"], row["value"])
            for row in SubDocB.__mapper__._do_where({}, None, None)
        )
        # The update survived replay (value 100, not the create's 0) and
        # the deleted row stayed gone on both sides.
        assert (rows[0]["id"], "raw-0", 100) in pub_rows
        assert all(row[0] != rows[4]["id"] for row in pub_rows)
        assert pub_rows == sub_rows
        assert sub_b.audit_replication().in_sync
        assert eco_b.cdc.idle()
