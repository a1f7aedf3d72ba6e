"""Golden tests for the durability on-disk formats.

The WAL record envelope and the snapshot manifest are restart
contracts: a process that crashes is recovered by a *future* process
reading what this one wrote, so the exact serialized shapes are pinned
here as literal dicts (mirroring tests/broker/test_wire_format.py for
the wire formats). A field rename shows up as a diff in this file, not
as a recovery failure months later.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.durability.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotStore,
    build_manifest,
)
from repro.durability.wal import (
    WAL_WIRE_VERSION,
    decode_record,
    encode_record,
    record_crc,
)
from repro.errors import DurabilityError, WALCorrupt
from repro.runtime.interleave import QUEUE_COALESCED, QUEUE_DEFERRED, QUEUE_SHED


class TestWALEnvelopeGolden:
    def test_envelope_exact_shape(self):
        rec = {"t": "ack", "q": "sub", "uid": "pub:7"}
        assert json.loads(encode_record(rec)) == {
            "v": 2,
            "crc": record_crc(rec),
            "rec": {"t": "ack", "q": "sub", "uid": "pub:7"},
        }

    def test_crc_is_over_canonical_record_json(self):
        # Sorted keys, no whitespace: writer and replayer must derive
        # the same bytes for the same record regardless of dict order.
        assert record_crc({"b": 2, "a": 1}) == (
            zlib.crc32(b'{"a":1,"b":2}') & 0xFFFFFFFF
        )
        assert record_crc({"a": 1, "b": 2}) == record_crc({"b": 2, "a": 1})

    def test_round_trip(self):
        rec = {"t": "pub", "q": "sub", "m": {"uid": "pub:1", "app": "pub"}}
        assert decode_record(encode_record(rec)) == rec

    def test_newer_wire_version_is_refused(self):
        envelope = json.loads(
            encode_record({"t": "ack", "q": "sub", "uid": "pub:7"})
        )
        envelope["v"] = WAL_WIRE_VERSION + 1
        with pytest.raises(WALCorrupt, match="newer"):
            decode_record(json.dumps(envelope))

    def test_flipped_bit_in_record_body_fails_crc(self):
        envelope = json.loads(
            encode_record({"t": "ack", "q": "sub", "uid": "pub:7"})
        )
        envelope["rec"]["uid"] = "pub:8"
        with pytest.raises(WALCorrupt, match="CRC"):
            decode_record(json.dumps(envelope))

    def test_garbage_lines_are_corrupt(self):
        with pytest.raises(WALCorrupt):
            decode_record('{"v": 1, "crc"')
        with pytest.raises(WALCorrupt):
            decode_record("[1, 2, 3]")


class TestPipelineRecordGolden:
    """The records the live pipeline actually writes, read back raw off
    disk — the hooks, not just the codec."""

    def _one_write(self, tmp_path):
        from repro.apps import build_replicated_pair
        from repro.broker.message import Message

        eco, pub, sub, PubDoc = build_replicated_pair()
        manager = eco.enable_durability(data_dir=str(tmp_path))
        with pub.controller():
            PubDoc.create(name="ada")
        sub.subscriber.drain()
        # A delivery forwarded by another shard, whose log holds its
        # ``out`` record: the one kind of delivery logged as ``pub``.
        eco.broker.deliver_remote("sub", Message(
            app="pub", operations=[], dependencies={}, published_at=0.0,
            uid="pub:far",
        ).to_json())
        manager.close()
        path = manager.wal.segment_path(1)
        with open(path, "r", encoding="utf-8") as fh:
            return [decode_record(line.strip()) for line in fh if line.strip()]

    def test_out_pub_apply_ack_records_on_disk(self, tmp_path):
        records = self._one_write(tmp_path)
        by_type = {}
        for rec in records:
            by_type.setdefault(rec["t"], rec)
        out = by_type["out"]
        assert set(out) == {"t", "app", "m", "q", "vs"}
        assert out["app"] == "pub"
        assert out["q"] == ["sub"]  # the local delivery: no pub record
        # The embedded payload is the golden wire format, trace dropped.
        assert out["m"]["wire_version"] == 4
        assert "repair" not in out["m"] and "bootstrap" not in out["m"]
        assert "trace" not in out["m"]
        assert all(
            len(pair) == 2 for pair in out["vs"].values()
        ), "vs maps hashed key -> [ops, version]"
        (pub,) = [rec for rec in records if rec["t"] == "pub"]
        assert set(pub) == {"t", "q", "m"}
        assert pub["q"] == "sub" and pub["m"]["uid"] == "pub:far"
        apply_rec = by_type["apply"]
        assert set(apply_rec) == {"t", "svc", "uid", "m"}
        assert apply_rec["svc"] == "sub"
        ack = by_type["ack"]
        assert set(ack) == {"t", "q", "uid"}
        assert ack["uid"] == apply_rec["uid"]

    def test_flow_and_rotation_records_on_disk(self, tmp_path):
        """The coal / shed / defer record shapes, written through the
        real hooks and read back raw off disk. ``coal`` carries the
        absorbed uids (replay drops them from pending) and ``defer``
        pins the rotation a restored queue must reproduce."""
        from repro.apps import build_replicated_pair
        from repro.broker.message import Message
        from repro.core import Ecosystem
        from repro.runtime.flow import FlowConfig
        from repro.runtime.flow.coalesce import merge_into

        eco = Ecosystem()
        eco.enable_flow(FlowConfig(capacity=8))
        _, pub, sub, PubDoc = build_replicated_pair(eco)
        manager = eco.enable_durability(data_dir=str(tmp_path))
        flow = sub.subscriber.queue.flow
        survivor = Message(
            app="pub", operations=[{"operation": "update", "types": ["Doc"],
                                    "id": 1, "attributes": {"name": "a"}}],
            dependencies={"h1": 1}, published_at=0.0, uid="pub:1",
        )
        absorbed = Message(
            app="pub", operations=[{"operation": "update", "types": ["Doc"],
                                    "id": 1, "attributes": {"name": "b"}}],
            dependencies={"h1": 2}, published_at=0.0, uid="pub:2",
        )
        merge_into(survivor, absorbed)
        manager.log_transition(QUEUE_COALESCED, ("sub", absorbed, survivor))
        flow._record_shed(absorbed)
        manager.log_transition(QUEUE_SHED, ("sub", absorbed, flow))
        manager.log_transition(QUEUE_DEFERRED, ("sub", survivor))
        manager.close()
        path = manager.wal.segment_path(1)
        with open(path, "r", encoding="utf-8") as fh:
            records = [decode_record(line.strip()) for line in fh if line.strip()]
        by_type = {rec["t"]: rec for rec in records}
        coal = by_type["coal"]
        assert set(coal) == {"t", "q", "uid", "m", "absorbed"}
        assert coal["uid"] == "pub:1"
        assert coal["absorbed"] == ["pub:2"]
        assert coal["m"] == survivor.to_wire()
        assert coal["m"]["increments"] == {"h1": 2}
        shed = by_type["shed"]
        assert set(shed) == {"t", "q", "app", "ledger", "uid"}
        assert shed["app"] == "pub"
        assert shed["uid"] == "pub:2"
        assert shed["ledger"] == {"h1": 1}
        defer = by_type["defer"]
        assert defer == {"t": "defer", "q": "sub", "uid": "pub:1"}


class TestSnapshotManifestGolden:
    def test_manifest_exact_shape(self):
        assert build_manifest(3, (2, 17)) == {
            "snapshot_version": 2,
            "id": 3,
            "wal": {"segment": 2, "offset": 17},
        }

    def test_store_writes_manifest_plus_state(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        snapshot_id, path = store.write({"queues": {}}, (1, 5))
        assert snapshot_id == 1
        with open(path, "r", encoding="utf-8") as fh:
            assert json.load(fh) == {
                "manifest": {
                    "snapshot_version": 2,
                    "id": 1,
                    "wal": {"segment": 1, "offset": 5},
                },
                "queues": {},
            }

    def test_newer_snapshot_version_is_refused(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        _, path = store.write({}, (1, 0))
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["manifest"]["snapshot_version"] = SNAPSHOT_VERSION + 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(DurabilityError, match="newer"):
            store.load_latest()

    def test_state_must_not_carry_its_own_manifest(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        with pytest.raises(DurabilityError, match="manifest"):
            store.write({"manifest": {}}, (1, 0))

    def test_invalid_snapshot_skipped_for_older_good_one(self, tmp_path):
        class Recorder:
            def __init__(self):
                self.anomalies = []

            def anomaly(self, kind, **data):
                self.anomalies.append((kind, data))

        recorder = Recorder()
        store = SnapshotStore(str(tmp_path), recorder=recorder)
        store.write({"marker": "old"}, (1, 1))
        _, newest = store.write({"marker": "new"}, (1, 9))
        with open(newest, "w", encoding="utf-8") as fh:
            fh.write("{half a snapsh")  # disk corruption, not a crash
        payload = store.load_latest()
        assert payload["marker"] == "old"
        assert recorder.anomalies[0][0] == "durability.snapshot_invalid"
