"""Counts, not timings, of what one ORM write costs the publisher.

With durability on and a fan-out of three, one update bumps the
publisher version store in exactly one script, reads that store only
inside the script, and its ``out`` record reads no counter at all: the
record carries the post-bump counters the script read. An engine whose
fault plan has nothing armed never takes the plan's lock. A later
change that brings a re-read or a lock back fails here.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.dependencies import dep_name
from repro.databases.base import FaultPlan
from repro.errors import FaultInjected
from tests.durability.test_encode_once import build_pipeline


class CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self) -> None:
        self.taken = 0
        self._lock = threading.Lock()

    def __enter__(self) -> None:
        self.taken += 1
        self._lock.acquire()

    def __exit__(self, *exc) -> None:
        self._lock.release()


def fanout3(tmp_path):
    eco, pub, subs, manager, PubDoc = build_pipeline(
        tmp_path, subscribers=("sub_a", "sub_b", "sub_c")
    )
    doc = PubDoc.create(name="doc", value=0)
    for sub in subs:
        sub.subscriber.drain()
    return eco, pub, subs, manager, doc


class TestOneUpdate:
    def test_one_script_and_no_read_outside_it(self, tmp_path, monkeypatch):
        eco, pub, subs, manager, doc = fanout3(tmp_path)
        store = pub.publisher_version_store
        (shard,) = store.kv.shards
        inside = []
        run_script = shard.eval

        def counted(script):
            before = shard.stats.reads
            try:
                return run_script(script)
            finally:
                inside.append(shard.stats.reads - before)

        monkeypatch.setattr(shard, "eval", counted)
        at_out = []
        log = manager.log_transition

        def logged(transition, fields):
            before = shard.stats.reads
            log(transition, fields)
            if transition.record == "out":
                at_out.append(shard.stats.reads - before)

        monkeypatch.setattr(manager, "log_transition", logged)
        reads = shard.stats.reads
        doc.update(value=1)
        assert len(inside) == 1
        assert shard.stats.reads - reads == inside[0] > 0
        assert at_out == [0]

        manager.wal.sync()
        (out,) = [
            rec for _, rec in manager.wal.replay()
            if rec["t"] == "out" and rec["m"]["operations"][0]["attributes"]["value"] == 1
        ]
        dep = dep_name("pub", "docs", doc.id)
        assert out["vs"] == {dep: list(store.current(dep))} == {dep: [2, 2]}
        for sub in subs:
            sub.subscriber.drain()
            assert sub.audit_replication().in_sync


class TestFaultPlanLock:
    def test_nothing_armed_takes_no_lock(self, tmp_path):
        eco, pub, subs, manager, doc = fanout3(tmp_path)
        engines = [pub.database, *(sub.database for sub in subs)]
        for service in (pub, *subs):
            engines.extend(service.publisher_version_store.kv.shards)
            engines.extend(service.subscriber_version_store.kv.shards)
        locks = []
        for engine in engines:
            engine.faults._lock = CountingLock()
            locks.append(engine.faults._lock)
        doc.update(value=1)
        for sub in subs:
            sub.subscriber.drain()
        assert sum(engine.stats.writes for engine in engines) > 0
        assert [lock.taken for lock in locks] == [0] * len(locks)

    def test_an_armed_plan_counts_under_its_lock(self):
        plan = FaultPlan(skip_next_writes=1, fail_next_writes=1)
        plan._lock = lock = CountingLock()
        plan.check_write()
        with pytest.raises(FaultInjected):
            plan.check_write()
        plan.check_write()
        assert lock.taken == 2
        assert (plan.skip_next_writes, plan.fail_next_writes) == (0, 0)
