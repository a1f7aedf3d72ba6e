"""Property test: crash-and-restore at every WAL record boundary.

A seeded random workload (publish / update / ack-by-drain / shed /
coalesce / defer-rotation) writes a WAL; then, for *every* prefix length k of that log,
a fresh ecosystem restores exactly k records, snapshots at that
boundary, and a third ecosystem restores snapshot-plus-tail. The
invariant is ARIES-lite's contract: *snapshot at any boundary + tail
replay ≡ pure log replay* — byte-equal durable state no matter where
the crash landed. At the full boundary the restored pipeline must also
drain (and shed-repair) to Merkle digest equality between the replicas
(``repro.repair.digest``).
"""

from __future__ import annotations

import copy
import random
import shutil

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.runtime.flow import FlowConfig

QUEUE_LIMIT = 10


def build_pipeline(data_dir):
    eco = Ecosystem(queue_limit=QUEUE_LIMIT)
    eco.enable_flow(FlowConfig(batch_max=4))
    _, pub, sub, Doc = build_replicated_pair(eco, {"name": str, "score": int}, mode="weak")
    manager = eco.enable_durability(data_dir=str(data_dir))
    return eco, pub, sub, manager, Doc


def run_workload(pub, sub, doc_cls, rng, operations=24):
    """Randomized publish/update/drain against a flow-controlled queue:
    adjacent updates coalesce, floods past the watermark shed, defer
    rotations reorder the backlog, drains ack and apply."""
    docs = []
    for _ in range(operations):
        op = rng.random()
        if op < 0.4 or not docs:
            with pub.controller():
                docs.append(
                    doc_cls.create(name=f"doc-{len(docs)}", score=0)
                )
        elif op < 0.7:
            doc = rng.choice(docs)
            with pub.controller():
                doc.score += rng.randrange(1, 10)
                doc.save()
        elif op < 0.85:
            # The worker pools' stall rotation: pop the head, put it at
            # the back — a ``defer`` record the restore must replay, or
            # snapshot-boundary state diverges from pure-replay order.
            queue = sub.subscriber.queue
            message = queue.pop(timeout=0)
            if message is not None:
                queue.defer(message)
        else:
            sub.subscriber.drain()
    return docs


def normalized_state(manager):
    """Durable state, detached from the live process."""
    return copy.deepcopy(manager.capture_state())


def wal_record_count(manager):
    return sum(1 for _ in manager.wal.replay())


@pytest.mark.parametrize("seed", [11, 29])
def test_snapshot_at_every_boundary_equals_pure_replay(tmp_path, seed):
    pristine = tmp_path / "pristine"
    rng = random.Random(seed)
    eco_a, pub_a, sub_a, mgr_a, Doc = build_pipeline(pristine)
    run_workload(pub_a, sub_a, Doc, rng)
    mgr_a.wal.sync()
    total = wal_record_count(mgr_a)
    assert total > 10, "workload produced too small a log to be interesting"
    # Abandoned, not closed: eco A just crashed.

    # Reference: pure full log replay, no snapshot involved.
    ref_dir = tmp_path / "reference"
    shutil.copytree(pristine, ref_dir)
    eco_r, pub_r, sub_r, mgr_r, _ = build_pipeline(ref_dir)
    ref_report = mgr_r.restore()
    assert not ref_report.unrecoverable
    assert ref_report.replayed == total
    reference = normalized_state(mgr_r)

    for k in range(total + 1):
        work = tmp_path / f"boundary-{k}"
        shutil.copytree(pristine, work)
        # Crash boundary: restore exactly k records, checkpoint there.
        eco_b, pub_b, sub_b, mgr_b, _ = build_pipeline(work)
        report_b = mgr_b.restore(replay_limit=k)
        assert not report_b.unrecoverable
        assert report_b.replayed == min(k, total)
        assert report_b.position is not None
        mgr_b.snapshot(pin=report_b.position)
        mgr_b.close()
        # Restart: snapshot at boundary k + the remaining tail.
        eco_c, pub_c, sub_c, mgr_c, _ = build_pipeline(work)
        report_c = mgr_c.restore()
        assert not report_c.unrecoverable
        assert report_c.snapshot_id is not None
        assert report_c.replayed <= total - k + 1  # pin overlap at most 1
        assert normalized_state(mgr_c) == reference, (
            f"seed {seed}: snapshot at record boundary {k} + tail replay "
            "diverged from pure log replay"
        )
        mgr_c.close()
        shutil.rmtree(work, ignore_errors=True)

    # The full-boundary pipeline must also *converge*: drain the
    # requeued backlog, heal intentional shed losses, digest-equal.
    sub_r.subscriber.drain()
    report = sub_r.audit_replication()
    if not report.in_sync:
        assert sub_r.repair_replication(report=report).verified_in_sync
    assert sub_r.audit_replication().in_sync
