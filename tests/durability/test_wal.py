"""SegmentedWAL unit tests: rotation, fsync policies, torn tails,
corruption, crash injection and compaction."""

from __future__ import annotations

import os

import pytest

from repro.durability.wal import (
    CrashInjector,
    SegmentedWAL,
    SimulatedCrash,
    encode_record,
)
from repro.errors import DurabilityError, WALCorrupt


class Recorder:
    def __init__(self):
        self.anomalies = []

    def anomaly(self, kind, **data):
        self.anomalies.append((kind, data))


def records(wal, start=None):
    return [rec for _, rec in wal.replay(start=start)]


class TestAppendReplay:
    def test_round_trip_in_order(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path))
        for i in range(5):
            wal.append({"t": "ack", "q": "sub", "uid": f"pub:{i}"})
        assert [rec["uid"] for rec in records(wal)] == [
            f"pub:{i}" for i in range(5)
        ]

    def test_positions_are_segment_and_offset(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), segment_records=3)
        positions = [wal.append({"t": "ack", "q": "q", "uid": str(i)})
                     for i in range(5)]
        assert positions == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
        assert wal.position() == (2, 2)

    def test_replay_from_position_skips_prefix(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), segment_records=3)
        for i in range(7):
            wal.append({"t": "ack", "q": "q", "uid": str(i)})
        tail = records(wal, start=(2, 1))
        assert [rec["uid"] for rec in tail] == ["4", "5", "6"]

    def test_reopen_continues_last_segment(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), segment_records=4)
        for i in range(6):
            wal.append({"t": "ack", "q": "q", "uid": str(i)})
        wal.close()
        again = SegmentedWAL(str(tmp_path), segment_records=4)
        assert again.position() == (2, 2)
        again.append({"t": "ack", "q": "q", "uid": "6"})
        assert [rec["uid"] for rec in records(again)] == [
            str(i) for i in range(7)
        ]

    def test_rotation_creates_segment_files(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), segment_records=2)
        for i in range(5):
            wal.append({"t": "ack", "q": "q", "uid": str(i)})
        wal.close()
        assert wal.segment_ids() == [1, 2, 3]

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(DurabilityError, match="fsync"):
            SegmentedWAL(str(tmp_path), fsync="sometimes")


class TestRotationGauges:
    def test_rotation_keeps_gauges_without_listing_the_directory(
        self, tmp_path, monkeypatch
    ):
        """Rotation is O(1): the segments/bytes gauges advance from what
        the writer itself did, never from a directory listing (one
        ``listdir`` plus a ``stat`` per segment on every rotation makes
        a long log between snapshots quadratic)."""
        from repro.runtime.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        wal = SegmentedWAL(str(tmp_path), segment_records=4, metrics=metrics)
        listings = []
        real_listdir = os.listdir
        monkeypatch.setattr(
            os, "listdir",
            lambda path: listings.append(path) or real_listdir(path),
        )
        for i in range(18):  # four rotations, five segments
            wal.append({"t": "ack", "q": "q", "uid": f"pub:{i}"})
        assert listings == []
        monkeypatch.undo()
        gauges = metrics.snapshot("durability.wal.")
        assert gauges["durability.wal.segments"] == len(wal.segment_ids()) == 5
        assert gauges["durability.wal.bytes"] == sum(
            os.path.getsize(wal.segment_path(sid)) for sid in wal.segment_ids()
        )


class TestFsyncPolicies:
    def test_off_reaches_the_file_immediately(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), fsync="off")
        wal.append({"t": "ack", "q": "q", "uid": "0"})
        # A second handle (a future process) sees the record without
        # any sync: write + flush moved the bytes into the kernel.
        other = SegmentedWAL(str(tmp_path), fsync="off")
        assert len(records(other)) == 1

    def test_interval_buffers_until_group_max(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), fsync="interval", group_max=3)
        wal.append({"t": "ack", "q": "q", "uid": "0"})
        wal.append({"t": "ack", "q": "q", "uid": "1"})
        path = wal.segment_path(1)
        assert not os.path.exists(path) or os.path.getsize(path) == 0
        wal.append({"t": "ack", "q": "q", "uid": "2"})  # group commit
        assert os.path.getsize(path) > 0
        assert len(records(SegmentedWAL(str(tmp_path)))) == 3

    def test_sync_flushes_partial_group(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), fsync="interval", group_max=100)
        wal.append({"t": "ack", "q": "q", "uid": "0"})
        wal.sync()
        assert len(records(SegmentedWAL(str(tmp_path)))) == 1

    def test_drop_buffered_tail_is_the_loss_window(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), fsync="interval", group_max=3)
        for i in range(3):
            wal.append({"t": "ack", "q": "q", "uid": str(i)})  # committed
        wal.append({"t": "ack", "q": "q", "uid": "3"})  # buffered only
        wal.append({"t": "ack", "q": "q", "uid": "4"})  # buffered only
        assert wal.drop_buffered_tail() == 2
        assert wal.position() == (1, 3)
        assert [rec["uid"] for rec in records(wal)] == ["0", "1", "2"]

    def test_always_fsyncs_every_record(self, tmp_path):
        from repro.runtime.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        wal = SegmentedWAL(str(tmp_path), fsync="always", metrics=metrics)
        for i in range(4):
            wal.append({"t": "ack", "q": "q", "uid": str(i)})
        assert metrics.value("durability.wal.fsyncs") == 4
        assert metrics.value("durability.wal.appends") == 4


class TestTornTailAndCorruption:
    def _write(self, tmp_path, count=3, recorder=None):
        wal = SegmentedWAL(str(tmp_path), recorder=recorder)
        for i in range(count):
            wal.append({"t": "ack", "q": "q", "uid": str(i)})
        wal.close()
        return wal

    def test_torn_final_record_truncated_with_anomaly(self, tmp_path):
        recorder = Recorder()
        wal = self._write(tmp_path, recorder=recorder)
        path = wal.segment_path(1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "crc": 123, "rec": {"t": "a')  # torn write
        assert [rec["uid"] for rec in records(wal)] == ["0", "1", "2"]
        kinds = [kind for kind, _ in recorder.anomalies]
        assert "durability.torn_tail" in kinds
        # The partial line is gone from the file, so a *second* replay
        # is clean and the next append lands at the truncated offset.
        assert len(records(wal)) == 3
        assert wal.append({"t": "ack", "q": "q", "uid": "3"}) == (1, 3)

    def test_mid_log_corruption_raises_wal_corrupt(self, tmp_path):
        wal = self._write(tmp_path)
        path = wal.segment_path(1)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[1] = lines[1].replace('"uid"', '"uXd"', 1)  # breaks the CRC
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(WALCorrupt):
            list(wal.replay())

    def test_corrupt_tail_of_non_final_segment_raises(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), segment_records=2)
        for i in range(4):  # two full segments
            wal.append({"t": "ack", "q": "q", "uid": str(i)})
        wal.close()
        with open(wal.segment_path(1), "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        # Only the final record of the *final* segment is forgivable.
        with pytest.raises(WALCorrupt):
            list(wal.replay())

    def test_newer_wire_version_on_disk_raises(self, tmp_path):
        wal = self._write(tmp_path, count=1)
        line = encode_record({"t": "ack", "q": "q", "uid": "future"})
        bumped = line.replace('"v":1', '"v":999')
        with open(wal.segment_path(1), "r+", encoding="utf-8") as fh:
            fh.seek(0)
            content = fh.read()
            fh.seek(0)
            fh.write(bumped + "\n" + content)
        with pytest.raises(WALCorrupt, match="newer"):
            list(wal.replay())


class TestCrashInjector:
    def test_unknown_point_rejected(self):
        with pytest.raises(DurabilityError):
            CrashInjector("mid-lunch")

    def test_fires_after_n_reaches_then_never_again(self):
        injector = CrashInjector("after-append", after_records=2)
        injector.fire("after-append")
        with pytest.raises(SimulatedCrash):
            injector.fire("after-append")
        injector.fire("after-append")  # spent: no re-fire
        assert injector.fired

    def test_other_points_do_not_count(self):
        injector = CrashInjector("before-ack", after_records=1)
        injector.fire("after-append")
        injector.fire("before-fsync")
        assert not injector.fired
        with pytest.raises(SimulatedCrash):
            injector.fire("before-ack")

    def test_wal_append_crash_point(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path))
        wal.injector = CrashInjector("after-append", after_records=2)
        wal.append({"t": "ack", "q": "q", "uid": "0"})
        with pytest.raises(SimulatedCrash):
            wal.append({"t": "ack", "q": "q", "uid": "1"})
        # after-append fires *after* the write: both records are on disk.
        assert len(records(SegmentedWAL(str(tmp_path)))) == 2

    def test_before_fsync_crash_loses_the_group(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), fsync="interval", group_max=2)
        wal.injector = CrashInjector("before-fsync", after_records=1)
        wal.append({"t": "ack", "q": "q", "uid": "0"})
        with pytest.raises(SimulatedCrash):
            wal.append({"t": "ack", "q": "q", "uid": "1"})
        assert wal.drop_buffered_tail() == 2
        assert records(SegmentedWAL(str(tmp_path))) == []


class TestCompaction:
    def test_compact_below_reclaims_whole_segments(self, tmp_path):
        wal = SegmentedWAL(str(tmp_path), segment_records=2)
        for i in range(6):
            wal.append({"t": "ack", "q": "q", "uid": str(i)})
        wal.close()
        assert wal.compact_below(3) == [1, 2]
        assert wal.segment_ids() == [3]
        assert [rec["uid"] for rec in records(wal)] == ["4", "5"]
