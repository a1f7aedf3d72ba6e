"""Directory fsyncs: a snapshot's rename is durable before compaction
removes what it covers, and a new WAL segment's directory entry is
durable under ``always``/``interval`` (never synced under ``off``).

A recording shim over ``os.fsync``/``os.replace``/``os.remove`` logs
the order of those calls in this process; the real calls still run.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.durability.datadir import snapshot_dir
from repro.durability.wal import SegmentedWAL
from tests.durability.test_restore import build_pipeline


@pytest.fixture
def calls(monkeypatch):
    log = []
    real_fsync, real_replace, real_remove = os.fsync, os.replace, os.remove

    def fsync(fd):
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            log.append(("dirsync", info.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        real_replace(src, dst)
        log.append(("replace", os.path.basename(dst)))

    def remove(path):
        log.append(("remove", os.path.basename(path)))
        real_remove(path)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "remove", remove)
    return log


def inode(path):
    return ("dirsync", os.stat(path).st_ino)


@pytest.mark.parametrize("policy", ["off", "interval", "always"])
def test_snapshot_rename_is_synced_before_compaction_removes(tmp_path, calls, policy):
    eco, pub, sub, manager, PubDoc, _ = build_pipeline(
        tmp_path, fsync=policy, segment_records=4
    )
    with pub.controller():
        for i in range(6):
            PubDoc.create(name=f"doc-{i}", value=i)
    sub.subscriber.drain()
    manager.snapshot()
    calls.clear()
    with pub.controller():
        PubDoc.create(name="more", value=9)
    sub.subscriber.drain()
    manager.snapshot()

    snap_sync = inode(snapshot_dir(str(tmp_path)))
    rename = next(i for i, call in enumerate(calls) if call[0] == "replace")
    removals = [i for i, call in enumerate(calls) if call[0] == "remove"]
    assert removals, calls  # an older snapshot and covered segments go
    assert snap_sync in calls[rename:removals[0]], calls


@pytest.mark.parametrize("policy,synced", [
    ("off", False), ("interval", True), ("always", True),
])
def test_new_segment_entry_is_synced_unless_off(tmp_path, calls, policy, synced):
    wal = SegmentedWAL(str(tmp_path), fsync=policy, segment_records=2, group_max=1)
    for i in range(5):
        wal.append({"t": "ack", "q": "q", "uid": str(i)})
    wal.close()
    assert wal.segment_ids() == [1, 2, 3]
    assert calls.count(inode(str(tmp_path))) == (3 if synced else 0)

