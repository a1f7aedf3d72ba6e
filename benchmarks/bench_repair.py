"""Anti-entropy repair cost: O(divergence), not O(dataset).

The paper's §6.5 remedy for lost write-messages is a full re-bootstrap,
whose cost grows with the dataset. Targeted repair runs bootstrap's
counter-and-row transfer for the divergent objects only, so for a fixed
divergence D its cost should stay roughly flat while the dataset grows —
and the subscriber-side engine writes it causes (the rows landed) should
track D, not N.
"""

from __future__ import annotations

import time

from benchmarks.common import emit, format_table
from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber
from repro.databases.document import MongoLike
from repro.orm import Field, Model
from repro.repair import ReplicationAuditor, repair_subscriber

SIZES = [500, 2000, 8000]
DIVERGENCE = 20  # lost messages per run, fixed across dataset sizes
AUDIT_SIZES = [1000, 4000]
AUDIT_DIVERGENCE = [0, 5, 20]
AUDIT_REPEATS = 5


def build(n_objects: int):
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name", "score"])
    class User(Model):
        name = Field(str)
        score = Field(int, default=0)

    users = [User.create(name=f"u{i}", score=i) for i in range(n_objects)]
    # The replica joins late: bootstrap, not the queue, fills it.
    _, _, sub, _ = build_replicated_pair(eco, {"name": str, "score": int}, "User")
    bootstrap_subscriber(sub)
    return eco, pub, sub, users


def lose_messages(eco, users, count: int):
    """Reproduce §6.5: drop `count` write-messages on the wire."""
    eco.broker.drop_next(count)
    for user in users[:count]:
        user.update(score=user.score + 1000)
    eco.services["sub"].subscriber.drain()


def test_repair_cost_flat_across_dataset_sizes(benchmark):
    """Audit time is O(N) (digest build scans each replica once, with no
    writes); the *repair* phase — per-object counter and row reads at
    the publisher, subscriber applies and counter raises — must stay
    O(divergence) as the dataset grows."""
    rows = []
    repair_elapsed_by_size = []
    writes_by_size = []
    for size in SIZES:
        eco, pub, sub, users = build(size)
        lose_messages(eco, users, DIVERGENCE)
        start = time.perf_counter()
        report = ReplicationAuditor(sub).audit()
        audit_elapsed = time.perf_counter() - start
        writes_before = sub.database.stats.writes
        start = time.perf_counter()
        result = repair_subscriber(sub, report=report, reaudit=False)
        repair_elapsed = time.perf_counter() - start
        sub_writes = sub.database.stats.writes - writes_before
        assert result.objects_repaired == DIVERGENCE
        assert ReplicationAuditor(sub).audit().in_sync
        repair_elapsed_by_size.append(repair_elapsed)
        writes_by_size.append(sub_writes)
        rows.append([
            size, DIVERGENCE, result.landed, sub_writes,
            f"{audit_elapsed * 1000:.1f}", f"{repair_elapsed * 1000:.1f}",
        ])
    emit(format_table(
        f"Targeted repair cost vs dataset size (divergence fixed at "
        f"{DIVERGENCE})",
        ["objects", "divergent", "rows landed", "sub engine writes",
         "audit ms", "repair ms"],
        rows,
    ))
    # The repair phase does the same work at every dataset size: same
    # engine-write count, and wall-clock within noise of flat across a
    # 16x dataset growth.
    assert max(writes_by_size) == min(writes_by_size)
    assert max(repair_elapsed_by_size) < 5 * min(repair_elapsed_by_size)

    eco, pub, sub, users = build(500)
    lose_messages(eco, users, DIVERGENCE)
    benchmark(lambda: repair_subscriber(sub, reaudit=False))


def test_repair_beats_full_bootstrap(benchmark):
    """The §6.5 comparison: heal the same loss both ways."""
    size, lost = 4000, 10
    rows = []

    eco, pub, sub, users = build(size)
    lose_messages(eco, users, lost)
    writes_before = sub.database.stats.writes
    start = time.perf_counter()
    report = ReplicationAuditor(sub).audit()
    audit_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    result = repair_subscriber(sub, report=report, reaudit=False)
    repair_elapsed = time.perf_counter() - start
    repair_writes = sub.database.stats.writes - writes_before
    assert ReplicationAuditor(sub).audit().in_sync
    rows.append(["targeted repair", result.objects_repaired, repair_writes,
                 f"{audit_elapsed * 1000:.1f}", f"{repair_elapsed * 1000:.1f}"])

    eco, pub, sub, users = build(size)
    lose_messages(eco, users, lost)
    writes_before = sub.database.stats.writes
    start = time.perf_counter()
    applied = len(bootstrap_subscriber(sub))
    bootstrap_elapsed = time.perf_counter() - start
    bootstrap_writes = sub.database.stats.writes - writes_before
    assert ReplicationAuditor(sub).audit().in_sync
    rows.append(["full re-bootstrap", applied, bootstrap_writes,
                 "-", f"{bootstrap_elapsed * 1000:.1f}"])

    emit(format_table(
        f"Healing {lost} lost messages in a {size}-object dataset (§6.5)",
        ["remedy", "objects applied", "sub engine writes", "detect ms",
         "heal ms"],
        rows,
    ))
    # The §6.5 cost that matters is subscriber write load while serving:
    # a bootstrap rewrites every object, repair rewrites the lost few.
    # (Detection reads each replica once but performs zero writes.)
    assert repair_writes < bootstrap_writes / 10
    assert repair_elapsed < bootstrap_elapsed

    eco, pub, sub, users = build(1000)
    lose_messages(eco, users, lost)
    benchmark(lambda: repair_subscriber(sub, reaudit=False))


def test_audit_time_tracks_dataset_size(benchmark):
    """An audit compares two ``{id: row hash}`` maps: its time follows
    the dataset (every row is read and hashed on both sides), not the
    divergence, and it finds exactly the lost objects."""
    rows = []
    elapsed = {}
    for size in AUDIT_SIZES:
        for divergence in AUDIT_DIVERGENCE:
            eco, pub, sub, users = build(size)
            lose_messages(eco, users, divergence)
            auditor = ReplicationAuditor(sub)
            times = []
            for _ in range(AUDIT_REPEATS):
                start = time.perf_counter()
                report = auditor.audit()
                times.append(time.perf_counter() - start)
                assert sorted(report.divergent_for("pub", "User")) == sorted(
                    user.id for user in users[:divergence]
                )
            elapsed[size, divergence] = sorted(times)[len(times) // 2]
            rows.append([size, divergence, report.divergent_total,
                         f"{elapsed[size, divergence] * 1000:.1f}"])
    emit(format_table(
        f"Audit time vs dataset size (median of {AUDIT_REPEATS})",
        ["objects", "divergent", "detected", "audit ms"],
        rows,
    ))
    # Divergence does not change the work: at each size the slowest
    # audit stays within noise of the fastest.
    for size in AUDIT_SIZES:
        per_size = [elapsed[size, d] for d in AUDIT_DIVERGENCE]
        assert max(per_size) < 3 * min(per_size)

    eco, pub, sub, users = build(1000)
    lose_messages(eco, users, 5)
    benchmark(ReplicationAuditor(sub).audit)
