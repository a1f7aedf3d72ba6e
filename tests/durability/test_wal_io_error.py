"""A failed segment write is fail-stop and structured.

The first ``OSError`` from a segment ``write``/``flush``/``fsync`` — in
``append`` or in the write that ends a step — rolls the position back
over what did not reach the file, emits a ``durability.io_error``
anomaly and raises :class:`WALWriteFailed`; every later append raises
the same error without touching the file, so a publish is refused
before any fan-out; and a restart restores cleanly from the prefix that
did reach the disk (docs/durability.md, failure model).

The fault is injected through the file handle, where ``_handle()``
opens the segment: a wrapper whose ``write`` raises ``ENOSPC`` on its
Nth call.
"""

from __future__ import annotations

import errno

import pytest

import repro.durability.wal as wal_mod
from repro.durability.wal import SegmentedWAL, decode_record
from repro.errors import DurabilityError, WALWriteFailed
from repro.runtime.workers import SubscriberWorkerPool

from .test_step_write import build_pipeline, lines_on_disk


class FullDisk:
    """A segment file handle whose Nth ``write`` finds the disk full."""

    def __init__(self, fh, budget):
        self._fh = fh
        self._budget = budget

    def write(self, data):
        if self._budget["writes_left"] <= 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self._budget["writes_left"] -= 1
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def disk(monkeypatch):
    """``disk["writes_left"] = n``: the segment takes n more writes."""
    budget = {"writes_left": 10 ** 9, "opened": 0}

    def opening(path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        if "a" not in mode:
            return handle
        budget["opened"] += 1
        return FullDisk(handle, budget)

    # ``open`` as wal.py resolves it — the one call in ``_handle()``.
    monkeypatch.setattr(wal_mod, "open", opening, raising=False)
    return budget


class Recorder:
    def __init__(self):
        self.anomalies = []

    def anomaly(self, kind, **data):
        self.anomalies.append((kind, data))


def ack(i):
    return {"t": "ack", "q": "q", "uid": str(i)}


def test_failed_append_rolls_back_reports_and_refuses(tmp_path, disk):
    recorder = Recorder()
    wal = SegmentedWAL(str(tmp_path), recorder=recorder)
    for i in range(3):
        wal.append(ack(i))
    disk["writes_left"] = 0
    with pytest.raises(WALWriteFailed) as failure:
        wal.append(ack(3))
    assert isinstance(failure.value, DurabilityError)
    assert isinstance(failure.value.__cause__, OSError)
    # The position covers what is in the file, not what was attempted.
    assert wal.position() == (1, 3)
    assert [kind for kind, _ in recorder.anomalies] == ["durability.io_error"]
    _, data = recorder.anomalies[0]
    assert data["errno"] == errno.ENOSPC and data["lost"] == 1
    # Fail-stop: space coming back changes nothing, the file is not
    # touched again, and the barrier a snapshot takes is refused too.
    disk["writes_left"] = 10 ** 9
    opened = disk["opened"]
    for _ in range(2):
        with pytest.raises(WALWriteFailed) as again:
            wal.append(ack(4))
        assert again.value is failure.value
    with pytest.raises(WALWriteFailed):
        wal.sync()
    assert disk["opened"] == opened
    assert wal.position() == (1, 3)
    assert len(recorder.anomalies) == 1
    wal.close()  # quiet: nothing left to write
    survivor = SegmentedWAL(str(tmp_path))
    assert survivor.position() == (1, 3)
    assert [rec["uid"] for _, rec in survivor.replay()] == ["0", "1", "2"]


def test_failed_group_commit_rolls_back_the_whole_group(tmp_path, disk):
    wal = SegmentedWAL(str(tmp_path), fsync="interval", group_max=3)
    for i in range(3):
        wal.append(ack(i))  # one group, written
    disk["writes_left"] = 0
    wal.append(ack(3))
    wal.append(ack(4))
    with pytest.raises(WALWriteFailed):
        wal.append(ack(5))  # the group's write fails: all three are gone
    assert wal.position() == (1, 3)
    assert len(list(SegmentedWAL(str(tmp_path)).replay())) == 3


def test_failed_fsync_is_the_same_failure(tmp_path, monkeypatch):
    recorder = Recorder()
    wal = SegmentedWAL(str(tmp_path), fsync="always", recorder=recorder)
    wal.append(ack(0))

    def failing_fsync(fd):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(wal_mod.os, "fsync", failing_fsync)
    with pytest.raises(WALWriteFailed):
        wal.append(ack(1))
    monkeypatch.undo()
    with pytest.raises(WALWriteFailed):
        wal.append(ack(2))
    assert recorder.anomalies[0][1]["errno"] == errno.EIO


def test_full_disk_at_a_step_end_refuses_publishes_and_restores(
    tmp_path, disk
):
    eco, pub, (sub,), manager, PubDoc = build_pipeline(tmp_path)
    with pub.controller():
        for i in range(3):
            PubDoc.create(name=f"doc-{i}", value=i)
    assert sub.subscriber.drain() == 3
    on_disk = len(lines_on_disk(manager))
    assert on_disk == 3 * 3 and manager.wal.position() == (1, on_disk)

    disk["writes_left"] = 0
    with pub.controller():
        # The write that ends the publish step fails: save() does not
        # return, it raises.
        with pytest.raises(WALWriteFailed):
            PubDoc.create(name="lost", value=99)
    assert [event.kind for event in eco.recorder.anomalies()] == [
        "durability.io_error"
    ]
    assert manager.wal.position() == (1, on_disk)
    assert len(lines_on_disk(manager)) == on_disk

    # From here on ``log_out`` refuses before any fan-out: nothing new
    # is queued, nothing is settled as durable.
    queue = sub.subscriber.queue
    (unlogged,) = queue.peek_all()  # enqueued before its step failed
    with pub.controller():
        with pytest.raises(WALWriteFailed):
            PubDoc.create(name="refused", value=100)
    assert queue.peek_all() == [unlogged]
    with pytest.raises(WALWriteFailed):
        queue.ack(queue.pop())
    with pytest.raises(WALWriteFailed):
        manager.snapshot()
    assert len(lines_on_disk(manager)) == on_disk
    assert all(decode_record(line) for line in lines_on_disk(manager))

    # The process is abandoned; its successor restores the prefix.
    disk["writes_left"] = 10 ** 9
    eco_b, pub_b, (sub_b,), manager_b, PubDoc_b = build_pipeline(tmp_path)
    report = manager_b.restore()
    assert not report.unrecoverable, report.error
    assert report.replayed == on_disk
    assert manager_b.wal.position() == (1, on_disk)
    sub_b.subscriber.drain()
    assert sorted(doc.name for doc in PubDoc_b.all()) == [
        "doc-0", "doc-1", "doc-2",
    ]
    assert sub_b.audit_replication().in_sync
    with pub_b.controller():
        PubDoc_b.create(name="after", value=4)
    assert sub_b.subscriber.drain() == 1
    assert sub_b.audit_replication().in_sync
    manager_b.close()


def test_full_disk_under_a_worker_pool_is_fatal_not_an_apply_error(
    tmp_path, disk
):
    """A WAL failure under a pool is fail-stop, not an apply error: it
    used to be counted, nacked and retried until a later ack raised the
    same error out of the worker loop — threads dying one by one with no
    anomaly, ``wait_until_idle`` left to time out."""
    eco, pub, (sub,), manager, PubDoc = build_pipeline(tmp_path)
    with pub.controller():
        for i in range(6):
            PubDoc.create(name=f"doc-{i}", value=i)
    on_disk = len(lines_on_disk(manager))

    disk["writes_left"] = 0
    pool = SubscriberWorkerPool(sub, workers=2, wait_timeout=0.05)
    with pool:
        workers = list(pool._threads)
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)
    # Once, whichever worker hit it first; nothing else is told.
    assert [event.kind for event in eco.recorder.anomalies()] == [
        "durability.io_error", "worker.fatal",
    ]
    fatal = eco.recorder.events("worker.fatal")
    assert len(fatal) == 1 and fatal[0].data["service"] == "sub"
    assert fatal[0].data["error"].startswith("WALWriteFailed")
    assert eco.metrics.value("workers.sub.apply_errors") == 0
    assert len(lines_on_disk(manager)) == on_disk

    # The drain path says the same thing the same way. (What the dead
    # workers held comes back first: the rest of the causal chain may be
    # waiting on it, and a drain that can apply nothing logs nothing.)
    sub.subscriber.queue.requeue_unacked()
    with pytest.raises(WALWriteFailed):
        sub.subscriber.drain()

    # The process is abandoned; its successor restores the prefix.
    disk["writes_left"] = 10 ** 9
    eco_b, pub_b, (sub_b,), manager_b, PubDoc_b = build_pipeline(tmp_path)
    report = manager_b.restore()
    assert not report.unrecoverable, report.error
    assert sub_b.subscriber.drain() == 6
    assert sub_b.audit_replication().in_sync
    manager_b.close()
