"""Directed conformance scenarios for the non-interleaving races.

The seeded harness explores races that live between the delivery yield
points. Three of the fixed bugs live elsewhere — in wall-clock wait
loops and teardown paths no interleaving schedule reaches — so each
gets a *directed* scenario that reproduces its exact failure window and
reports checker violations under the same stable invariant names:

- :func:`pop_deadline_scenario` (``queue.pop-deadline``): a blocking
  pop must survive spurious wakeups / stolen notifies and keep waiting
  until its deadline.
- :func:`fleet_idle_deadline_scenario` (``fleet.idle-deadline``):
  ``WorkerFleet.wait_until_idle(timeout=T)`` must treat ``T`` as one
  shared deadline, not a per-pool, per-round grant.
- :func:`drain_leak_scenario` (``drain.no-leaked-deliveries``): a
  queue decommissioned mid-``drain`` must get its already-popped
  pending messages back (tolerated nacks), not leak them.
- :func:`flow_coalesce_safety_scenario` (``flow.admission-safety``):
  adjacent causal writes coalesce, but merging past an intervener is
  rejected in *both* hazard directions — an intervener that depends on
  a key the survivor increments, and an absorbed write that depends on
  a key an intervener increments.
- :func:`durability_crash_point_scenario`
  (``durability.restore-equivalence``): crash the pipeline at each WAL
  crash point (``after-append`` / ``before-fsync`` / ``before-ack``),
  abandon the wounded process state, and prove a fresh restore over
  the same data dir converges the replicas — including the genuine
  group-commit loss window of the ``interval`` fsync policy.
- :func:`durability_kill_restart_scenario` (same invariant): the
  uncatchable version — a child process SIGKILLs *itself* mid-append
  via a hard crash injector, and the parent restores from the orphaned
  WAL and audits the replicas back to digest-equality.
- :func:`cdc_poll_crash_scenario` / :func:`cdc_kill_restart_scenario`
  (``cdc.outbox-delivery``): crash the CDC poller mid-tail — before or
  after its cursor checkpoint, softly or by genuine SIGKILL — and
  prove a restore re-tails the outbox to digest-equal replicas with
  zero lost raw writes.

The module also pins the *committed schedules* for the two interleaving
races (generation gate vs in-flight deliveries; ack after
decommission): seeds found by reverting each fix and sweeping, kept
here so the regression tests replay exactly the schedule that exposes
the race window.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.broker.message import Message
from repro.broker.queue import SubscriberQueue
from repro.errors import QueueDecommissioned
from repro.runtime.conformance.checker import (
    INV_CDC,
    INV_DURABLE,
    INV_FLOW,
    INV_IDLE,
    INV_LEAK,
    INV_POP,
    Violation,
)
from repro.runtime.conformance.harness import ScheduleConfig
from repro.runtime.interleave import install_hook, uninstall_hook

# -- committed schedules for the interleaving races --------------------------
#
# Found by reverting the fix under test and sweeping seeds until the
# checker flagged the race, then re-verified green with the fix in
# place. The regression tests assert both directions *and* that the
# trace actually enters the race window (the marker event), so the
# schedules cannot silently rot into not exercising the bug.

#: Generation gate vs in-flight deliveries: with ``peek_unacked``
#: blinded, this schedule flushes the app's counters while an older-
#: generation delivery is popped-but-unacked (``generation.flush-safety``).
GATE_RACE_SCHEDULE = ScheduleConfig(
    mode="causal", seed=1, workers=3, messages=10, generation_bump=True
)
GATE_RACE_MARKER = "generation.deferred"

#: Ack after decommission: with the legacy strict ``ack``, this
#: schedule kills a worker mid-message when the queue overflows
#: (``worker.no-silent-death``); with the fix the ack is a tolerated
#: no-op (``queue.ack.tolerated`` appears in the trace).
DECOMMISSION_ACK_SCHEDULE = ScheduleConfig(
    mode="causal", seed=0, workers=3, messages=12, queue_limit=4
)
DECOMMISSION_ACK_MARKER = "queue.ack.tolerated"


def trace_has(trace: List[str], marker: str) -> bool:
    """Does any normalized trace line contain the given event label?"""
    return any(marker in line for line in trace)


def _plain_message(app: str = "pub") -> Message:
    return Message(
        app=app,
        operations=[],
        dependencies={},
        published_at=0.0,
    )


# -- queue.pop-deadline ------------------------------------------------------

def pop_deadline_scenario(
    timeout: float = 0.5, pokes: int = 3
) -> List[Violation]:
    """Spurious-wakeup injection against a blocking ``pop``.

    A consumer blocks in ``pop(timeout=...)`` on an empty queue; we
    fire several bare ``notify_all`` pokes (the condition-variable
    wakeups a consumer must treat as spurious — equivalently, notifies
    stolen by a faster sibling), then publish a real message well
    before the deadline. A conforming pop re-checks its predicate and
    keeps waiting; the old single-``wait(timeout)`` implementation
    returned ``None`` on the first poke, dropping the delivery from
    the caller's point of view.
    """
    queue = SubscriberQueue("conformance-pop")
    outcome: Dict[str, Any] = {}
    started = threading.Event()

    def consumer() -> None:
        started.set()
        begin = time.monotonic()
        message = queue.pop(timeout=timeout)
        outcome["elapsed"] = time.monotonic() - begin
        outcome["message"] = message

    thread = threading.Thread(target=consumer, daemon=True)
    thread.start()
    started.wait(timeout)
    poke_gap = timeout / (pokes + 3)
    for _ in range(pokes):
        time.sleep(poke_gap)
        with queue._lock:
            queue._available.notify_all()
    time.sleep(poke_gap)
    queue.publish(_plain_message())
    thread.join(timeout * 4)

    violations: List[Violation] = []
    if thread.is_alive():
        violations.append(
            Violation(INV_POP, "pop never returned after a real publish")
        )
    elif outcome.get("message") is None:
        violations.append(
            Violation(
                INV_POP,
                f"pop returned None after {outcome.get('elapsed', 0):.3f}s "
                f"with {timeout:.3f}s of patience: a spurious wakeup was "
                "treated as a timeout and the delivery was dropped",
            )
        )
    return violations


# -- fleet.idle-deadline -----------------------------------------------------

class _FakeClock:
    """Minimal stand-in for the ``time`` module inside workers.py."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += max(0.0, seconds)


class _GreedyPool:
    """A pool that consumes every second of whatever timeout it is
    granted before reporting idle — the worst case for a fleet that
    hands each pool its own full budget."""

    def __init__(self, clock: _FakeClock) -> None:
        self._clock = clock

    def wait_until_idle(self, timeout: float = 10.0) -> bool:
        self._clock.advance(timeout)
        return True


def fleet_idle_deadline_scenario(
    pools: int = 4, timeout: float = 30.0, settle_rounds: int = 3
) -> List[Violation]:
    """``wait_until_idle(timeout=T)`` against greedy pools on a fake
    clock: total elapsed time must stay at ``T``, not inflate to
    ``settle_rounds × pools × T`` (24x at the defaults)."""
    from repro.runtime import workers as workers_mod

    clock = _FakeClock()
    fleet = workers_mod.WorkerFleet.__new__(workers_mod.WorkerFleet)
    fleet.pools = [_GreedyPool(clock) for _ in range(pools)]
    real_time = workers_mod.time
    workers_mod.time = clock  # type: ignore[assignment]
    try:
        fleet.wait_until_idle(timeout=timeout, settle_rounds=settle_rounds)
    finally:
        workers_mod.time = real_time
    violations: List[Violation] = []
    # One shared deadline: the greedy first pool may eat the whole
    # budget, but the call as a whole must not exceed it (small slack
    # for the zero-remaining waits granted to the later pools).
    if clock.now > timeout * 1.5:
        violations.append(
            Violation(
                INV_IDLE,
                f"wait_until_idle(timeout={timeout}) consumed {clock.now:.1f}s "
                f"across {pools} pools x {settle_rounds} rounds — the timeout "
                "was granted per pool instead of shared",
            )
        )
    return violations


# -- drain.no-leaked-deliveries ----------------------------------------------

class _DecommissionOnPop:
    """Interleave hook that overflows the queue at the Nth ``queue.pop``,
    decommissioning it while ``drain`` holds popped-but-pending
    messages."""

    def __init__(self, overflow: Callable[[], None], at_pop: int) -> None:
        self.overflow = overflow
        self.at_pop = at_pop
        self.pops = 0
        self.events: List[Tuple[str, Dict[str, Any]]] = []
        self._injecting = False

    def __call__(self, label: str, info: Dict[str, Any], pause: bool) -> None:
        self.events.append((label, info))
        if label == "queue.pop" and not self._injecting:
            self.pops += 1
            if self.pops == self.at_pop:
                self._injecting = True
                self.overflow()


def drain_leak_scenario(queue_limit: int = 4) -> List[Violation]:
    """Decommission the queue in the middle of ``drain``'s pop loop and
    account for every message drain had already popped: each must come
    back via a nack (tolerated on the dead queue) instead of leaking as
    a phantom in-flight delivery."""
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike
    from repro.databases.relational import PostgresLike
    from repro.orm import Field, Model

    eco = Ecosystem(queue_limit=queue_limit)
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"], name="Doc")
    class PubDoc(Model):
        name = Field(str)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="Doc")
    class SubDoc(Model):
        name = Field(str)

    # Two deliveries drain will pop and hold: unsatisfiable causal
    # updates (their create message is dropped, so their dependency
    # counters can never catch up during the scenario).
    eco.broker.drop_next(1)
    with pub.controller():
        doc = PubDoc.create(name="seed")
    with pub.controller():
        doc.name = "first-orphan-update"
        doc.save()
    with pub.controller():
        doc.name = "second-orphan-update"
        doc.save()

    def overflow() -> None:
        with pub.controller():
            for i in range(queue_limit + 2):
                PubDoc.create(name=f"flood-{i}")

    hook = _DecommissionOnPop(overflow, at_pop=3)
    install_hook(hook)
    decommission_raised = False
    try:
        sub.subscriber.drain()
    except QueueDecommissioned:
        decommission_raised = True
    finally:
        uninstall_hook(hook)

    violations: List[Violation] = []
    if not decommission_raised:
        violations.append(
            Violation(
                INV_LEAK,
                "queue decommissioned mid-drain but drain did not surface "
                "QueueDecommissioned",
            )
        )
    popped = set()
    returned = set()
    for label, info in hook.events:
        uid = info["message"].uid if "message" in info else None
        if label == "queue.popped":
            popped.add(uid)
        elif label in (
            "queue.acked",
            "queue.ack.tolerated",
            "queue.nacked",
            "queue.nack.tolerated",
        ):
            returned.add(uid)
    leaked = sorted(popped - returned)
    if leaked:
        violations.append(
            Violation(
                INV_LEAK,
                f"drain leaked popped deliveries {leaked}: neither acked nor "
                "returned via nack when the queue was decommissioned",
            )
        )
    return violations


# -- flow.admission-safety ---------------------------------------------------

def flow_coalesce_safety_scenario() -> List[Violation]:
    """Causal-mode coalescing safety, both directions.

    Adjacent same-object writes must merge (create+update, then the
    trailing update pair), but merging *past an intervener* must be
    rejected in both hazard directions: an intervener whose
    dependencies overlap the survivor's keys (it would wait on counter
    bumps the merge moves behind it), and an absorbed write that
    depends on a key the intervener increments (merged to the
    survivor's earlier position, it would wait on a bump queued behind
    itself). The conservative union check refuses any overlap. After
    each phase the scenario drains and asserts the coalesced stream
    converges to the final payload with nothing left queued."""
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike
    from repro.databases.relational import PostgresLike
    from repro.orm import Field, Model
    from repro.runtime.flow import FlowConfig

    eco = Ecosystem()
    eco.enable_flow(FlowConfig(batch_max=4))
    pub = eco.service(
        "pub", database=MongoLike("pub-db"), delivery_mode="causal"
    )

    @pub.model(publish=["name", "value"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        value = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(
        subscribe={"from": "pub", "fields": ["name", "value"], "mode": "causal"},
        name="Doc",
    )
    class SubDoc(Model):
        name = Field(str)
        value = Field(int, default=0)

    queue = sub.subscriber.queue
    violations: List[Violation] = []

    with pub.controller():
        target = PubDoc.create(name="target", value=0)
    with pub.controller():
        target.value = 1
        target.save()  # adjacent to the create: merges into it
    if eco.metrics.value("flow.sub.coalesced") != 1 or len(queue) != 1:
        violations.append(
            Violation(
                INV_FLOW,
                "adjacent same-object causal writes did not coalesce "
                f"(coalesced={eco.metrics.value('flow.sub.coalesced')}, "
                f"queued={len(queue)})",
            )
        )

    with pub.controller() as ctx:
        # The intervener *reads* the target: its message depends on the
        # target's counter, which the queued create+update increments.
        ctx.add_read_deps(target)
        PubDoc.create(name="reader", value=0)
    with pub.controller():
        target.value = 2
        target.save()  # must NOT merge past the reader

    rejected = eco.metrics.value("flow.sub.coalesce_rejected")
    if rejected < 1 or len(queue) != 3:
        violations.append(
            Violation(
                INV_FLOW,
                "unsafe causal coalesce was not rejected: the intervener's "
                "dependencies overlap the survivor's keys "
                f"(rejected={rejected}, queued={len(queue)})",
            )
        )

    with pub.controller():
        target.value = 3
        target.save()  # adjacent to the rejected update: safe again
    if eco.metrics.value("flow.sub.coalesced") != 2 or len(queue) != 3:
        violations.append(
            Violation(
                INV_FLOW,
                "safe trailing coalesce did not happen "
                f"(coalesced={eco.metrics.value('flow.sub.coalesced')}, "
                f"queued={len(queue)})",
            )
        )

    sub.subscriber.drain()
    row = SubDoc.__mapper__.find(target.id)
    final = row["value"] if row is not None else None
    if len(queue) or final != 3:
        violations.append(
            Violation(
                INV_FLOW,
                f"coalesced stream did not converge: queued={len(queue)}, "
                f"replicated value={final!r} (expected 3)",
            )
        )

    # Reverse hazard direction: this time the *absorbed* write depends
    # on a key the intervener increments. The queued survivor writes
    # the target; the intervener creates an unrelated object; the
    # absorbed write reads that object, so its message requires the
    # intervener's counter bump. Merging it into the survivor would
    # park that wait at the survivor's earlier position — ahead of the
    # very bump (carried by the intervener) that satisfies it.
    rejected_before = eco.metrics.value("flow.sub.coalesce_rejected")
    with pub.controller():
        target.value = 4
        target.save()
    with pub.controller():
        other = PubDoc.create(name="other", value=0)
    with pub.controller() as ctx:
        ctx.add_read_deps(other)
        target.value = 5
        target.save()  # must NOT merge ahead of the "other" create
    rejected = eco.metrics.value("flow.sub.coalesce_rejected")
    if rejected != rejected_before + 1 or len(queue) != 3:
        violations.append(
            Violation(
                INV_FLOW,
                "unsafe reverse-direction causal coalesce was not rejected: "
                "the absorbed write depends on a key the intervener bumps "
                f"(rejected={rejected - rejected_before}, queued={len(queue)})",
            )
        )

    sub.subscriber.drain()
    row = SubDoc.__mapper__.find(target.id)
    final = row["value"] if row is not None else None
    if len(queue) or final != 5:
        violations.append(
            Violation(
                INV_FLOW,
                "reverse-direction stream did not converge: "
                f"queued={len(queue)}, replicated value={final!r} (expected 5)",
            )
        )
    return violations


# -- durability.restore-equivalence: crash points ----------------------------

def _durability_scenario_eco(data_dir: str, fsync: str) -> Tuple[Any, ...]:
    """A two-service causal pipeline with durability armed into
    ``data_dir`` — the fixture every crash scenario builds twice: once
    to wound, once to restore. The subscription is *mapped* (§3.1): one
    attribute renamed, one published virtual — what restore and the
    audit must read the way the live apply does."""
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike
    from repro.databases.relational import PostgresLike
    from repro.orm import Field, Model, VirtualField

    eco = Ecosystem()
    pub = eco.service(
        "pub", database=MongoLike("pub-db"), delivery_mode="causal"
    )

    @pub.model(publish=["name", "value", "shout"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        value = Field(int, default=0)
        shout = VirtualField(getter=lambda doc: doc.name.upper())

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(
        subscribe={
            "from": "pub",
            "fields": {"name": "title", "value": "value", "shout": "shout"},
            "mode": "causal",
        },
        name="Doc",
    )
    class SubDoc(Model):
        title = Field(str)
        value = Field(int, default=0)
        shout = Field(str)

    manager = eco.enable_durability(data_dir=data_dir, fsync=fsync, group_max=4)
    return eco, pub, sub, manager, PubDoc


def durability_crash_point_scenario(
    point: str, writes: int = 8
) -> List[Violation]:
    """Crash at one WAL crash point, then prove restore convergence.

    Ecosystem A publishes causal writes (and, for ``before-ack``,
    drains) with a :class:`CrashInjector` armed at ``point``; the
    injected :class:`SimulatedCrash` abandons it mid-flight — unacked
    deliveries popped, file handle open, no clean close or snapshot.
    ``before-fsync`` runs the ``interval`` policy and then drops the
    unsynced group-commit buffer, modelling the real loss window.
    Ecosystem B restores over the same data dir; the replicas must
    converge to digest-equality (directly, or via targeted repair for
    the writes the loss window genuinely discarded)."""
    import shutil
    import tempfile

    from repro.durability.wal import (
        FSYNC_INTERVAL,
        FSYNC_OFF,
        CrashInjector,
        SimulatedCrash,
    )

    fsync = FSYNC_INTERVAL if point == "before-fsync" else FSYNC_OFF
    after = 1 if point == "before-fsync" else 3
    data_dir = tempfile.mkdtemp(prefix="repro-conf-crash-")
    violations: List[Violation] = []
    manager_b = None
    try:
        eco_a, pub_a, sub_a, manager_a, doc_cls = _durability_scenario_eco(
            data_dir, fsync
        )
        manager_a.wal.injector = CrashInjector(point, after_records=after)
        crashed = False
        try:
            for i in range(writes):
                with pub_a.controller():
                    doc_cls.create(name=f"doc-{i}", value=i)
            sub_a.subscriber.drain()
        except SimulatedCrash:
            crashed = True
        if not crashed:
            violations.append(
                Violation(
                    INV_DURABLE,
                    f"crash injector at {point!r} never fired — the "
                    "scenario exercised nothing",
                )
            )
            return violations
        manager_a.wal.injector = None
        lost = manager_a.wal.drop_buffered_tail()
        # Ecosystem A is abandoned unclosed: that is what a crash means.

        eco_b, pub_b, sub_b, manager_b, _ = _durability_scenario_eco(
            data_dir, fsync
        )
        report = manager_b.restore()
        if report.unrecoverable:
            violations.append(
                Violation(
                    INV_DURABLE,
                    f"restore after a {point!r} crash reported "
                    f"unrecoverable: {report.error}",
                )
            )
            return violations
        sub_b.subscriber.drain()
        audit = sub_b.audit_replication()
        if not audit.in_sync:
            result = sub_b.repair_replication(report=audit)
            if not result.verified_in_sync:
                violations.append(
                    Violation(
                        INV_DURABLE,
                        f"replicas still divergent after a {point!r} crash, "
                        f"restore (replayed={report.replayed}, "
                        f"lost={lost} buffered records) and targeted repair",
                    )
                )
    finally:
        if manager_b is not None:
            manager_b.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return violations


def _durability_kill_child(data_dir: str, conn: Any) -> None:
    """Child half of the kill-restart scenario: WAL with a *hard*
    injector armed, so the Nth append SIGKILLs this process inside a
    publish step. Every publish that returns is reported over ``conn``;
    anything else sent there is a failure diagnostic — a healthy run
    dies before reaching it."""
    from repro.durability.wal import CrashInjector

    try:
        eco, pub, sub, manager, doc_cls = _durability_scenario_eco(
            data_dir, "off"
        )
        manager.wal.injector = CrashInjector(
            "after-append", after_records=9, hard=True
        )
        for i in range(64):
            with pub.controller():
                doc_cls.create(name=f"kill-{i}", value=i)
            conn.send(("returned", i + 1))
        conn.send(("survived", None))
    except Exception as exc:  # pragma: no cover - diagnostics only
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass


def durability_kill_restart_scenario(timeout: float = 30.0) -> List[Violation]:
    """The uncatchable crash: a child process dies by genuine SIGKILL
    mid-append, and the parent restores from the orphaned data dir.

    No ``finally`` blocks run in the child, no buffers get the chance
    to flush politely — exactly the failure the WAL exists for. The
    parent verifies the death was really ``-SIGKILL`` (a clean exit
    means the injector never fired) and that the orphaned log is whole
    lines (the kill lands inside a publish step, whose records reach
    the file in one write or not at all), then restores — every publish
    that had returned must come back — drains, and audits the replicas
    to digest-equality."""
    import multiprocessing
    import shutil
    import signal
    import tempfile

    data_dir = tempfile.mkdtemp(prefix="repro-conf-kill-")
    violations: List[Violation] = []

    def violated(text: str) -> List[Violation]:
        violations.append(Violation(INV_DURABLE, text))
        return violations

    manager = None
    try:
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_durability_kill_child,
            args=(data_dir, child_conn),
            name="conformance-kill-child",
        )
        process.start()
        child_conn.close()
        process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(5.0)
            return violated(
                f"kill-restart child hung past {timeout:.0f}s instead "
                "of dying at its crash point"
            )
        returned, frame = 0, None
        try:
            while parent_conn.poll(0):
                frame = parent_conn.recv()
                if frame[0] == "returned":
                    returned = frame[1]
        except EOFError:
            pass
        if process.exitcode != -signal.SIGKILL:
            detail = "" if frame is None else f" ({frame})"
            return violated(
                f"child exited {process.exitcode} instead of dying by "
                f"SIGKILL{detail}"
            )

        eco, pub, sub, manager, doc_cls = _durability_scenario_eco(
            data_dir, "off"
        )
        report = manager.restore()
        if report.unrecoverable:
            return violated(
                f"restore after SIGKILL reported unrecoverable: "
                f"{report.error}"
            )
        if eco.recorder.events("durability.torn_tail"):
            violated(
                "SIGKILL left a torn line: a step reaches the file as "
                "whole lines, in one write, or not at all"
            )
        if doc_cls.count() < returned:
            # fsync ``off``'s promise: a publish whose save() returned
            # is in the kernel, whatever happens to the process.
            violated(
                f"{returned} publishes had returned before the "
                f"SIGKILL, restore brought back {doc_cls.count()}"
            )
        if not report.replayed and report.snapshot_id is None:
            return violated(
                "restore after SIGKILL recovered nothing: no snapshot "
                "and an empty WAL tail"
            )
        sub.subscriber.drain()
        audit = sub.audit_replication()
        if not audit.in_sync:
            result = sub.repair_replication(report=audit)
            if not result.verified_in_sync:
                violated(
                    "replicas still divergent after SIGKILL, restore "
                    f"(replayed={report.replayed}) and targeted repair"
                )
    finally:
        if manager is not None:
            manager.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return violations


def _cdc_scenario_eco(data_dir: str) -> Tuple[Any, ...]:
    """The durability fixture with the publisher's CDC front-end armed:
    raw writes go through the transactional outbox and the poller tails
    them into the ordinary publisher path."""
    eco, pub, sub, manager, doc_cls = _durability_scenario_eco(
        data_dir, "off"
    )
    pub.enable_outbox()
    return eco, pub, sub, manager, doc_cls


def cdc_poll_crash_scenario(point: str, writes: int = 8) -> List[Violation]:
    """Crash the CDC poller at one poll crash point, then prove a fresh
    restore over the same data dir re-tails the outbox without losing a
    single committed raw write.

    ``before-publish``/``after-publish`` crash mid-tail (the cursor
    checkpoint has not been written yet — recovery leans on the cursor
    piggybacked onto the ``out`` WAL records); ``after-checkpoint``
    crashes once the checkpoint record is durable. In every case the
    restored ecosystem must drain to digest-equal replicas with the
    cursor caught up to the outbox tail."""
    import shutil
    import tempfile

    from repro.cdc import PollCrash
    from repro.durability.wal import SimulatedCrash

    after = 1 if point == "after-checkpoint" else 3
    data_dir = tempfile.mkdtemp(prefix="repro-conf-cdc-")
    violations: List[Violation] = []
    manager_b = None
    try:
        eco_a, pub_a, sub_a, manager_a, doc_cls = _cdc_scenario_eco(data_dir)
        raw = pub_a.raw_session()
        for i in range(writes):
            raw.insert(doc_cls, {"name": f"cdc-{i}", "value": i})
        pub_a.cdc_poller.injector = PollCrash(point, after=after)
        crashed = False
        try:
            eco_a.cdc.poll_all()
        except SimulatedCrash:
            crashed = True
        if not crashed:
            violations.append(
                Violation(
                    INV_CDC,
                    f"poll crash injector at {point!r} never fired — the "
                    "scenario exercised nothing",
                )
            )
            return violations
        manager_a.wal.drop_buffered_tail()
        # Ecosystem A is abandoned unclosed, cursor checkpoint possibly
        # missing: that is what a poller crash means.

        eco_b, pub_b, sub_b, manager_b, _ = _cdc_scenario_eco(data_dir)
        report = manager_b.restore()
        if report.unrecoverable:
            violations.append(
                Violation(
                    INV_CDC,
                    f"restore after a {point!r} poll crash reported "
                    f"unrecoverable: {report.error}",
                )
            )
            return violations
        eco_b.drain_all()
        poller_b = pub_b.cdc_poller
        if not poller_b.idle():
            violations.append(
                Violation(
                    INV_CDC,
                    f"{poller_b.backlog()} outbox entries still unpublished "
                    f"after restore from a {point!r} poll crash "
                    f"(cursor={poller_b.cursor})",
                )
            )
        audit = sub_b.audit_replication()
        if not audit.in_sync:
            result = sub_b.repair_replication(report=audit)
            if not result.verified_in_sync:
                violations.append(
                    Violation(
                        INV_CDC,
                        f"replicas still divergent after a {point!r} poll "
                        f"crash, restore (replayed={report.replayed}) and "
                        "targeted repair",
                    )
                )
        sub_mapper = sub_b.registry.get("Doc").__mapper__
        sub_rows = len(sub_mapper._do_where({}, None, None))
        if sub_rows != writes:
            violations.append(
                Violation(
                    INV_CDC,
                    f"subscriber holds {sub_rows}/{writes} raw-written rows "
                    f"after a {point!r} poll crash and restore",
                )
            )
    finally:
        if manager_b is not None:
            manager_b.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return violations


def _cdc_kill_child(data_dir: str, conn: Any) -> None:
    """Child half of the CDC kill-restart scenario: raw-write a batch,
    then tail it with a *hard* poll injector armed — the Nth publish
    SIGKILLs this process mid-tail."""
    from repro.cdc import PollCrash

    try:
        eco, pub, sub, manager, doc_cls = _cdc_scenario_eco(data_dir)
        raw = pub.raw_session()
        for i in range(16):
            raw.insert(doc_cls, {"name": f"kill-{i}", "value": i})
        pub.cdc_poller.injector = PollCrash(
            "after-publish", after=5, hard=True
        )
        eco.cdc.poll_all()
        conn.send(("survived", None))
    except Exception as exc:  # pragma: no cover - diagnostics only
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass


def cdc_kill_restart_scenario(
    timeout: float = 30.0, writes: int = 16
) -> List[Violation]:
    """The acceptance crash: SIGKILL the process hosting the CDC poller
    mid-tail, restore over the same data dir, and prove digest-equal
    replicas with zero lost outbox entries."""
    import multiprocessing
    import shutil
    import signal
    import tempfile

    data_dir = tempfile.mkdtemp(prefix="repro-conf-cdc-kill-")
    violations: List[Violation] = []
    manager = None
    try:
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_cdc_kill_child,
            args=(data_dir, child_conn),
            name="conformance-cdc-kill-child",
        )
        process.start()
        child_conn.close()
        process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(5.0)
            violations.append(
                Violation(
                    INV_CDC,
                    f"cdc kill-restart child hung past {timeout:.0f}s "
                    "instead of dying at its poll crash point",
                )
            )
            return violations
        returned, frame = 0, None
        try:
            while parent_conn.poll(0):
                frame = parent_conn.recv()
                if frame[0] == "returned":
                    returned = frame[1]
        except EOFError:
            pass
        if process.exitcode != -signal.SIGKILL:
            detail = "" if frame is None else f" ({frame})"
            violations.append(
                Violation(
                    INV_CDC,
                    f"cdc child exited {process.exitcode} instead of dying "
                    f"by SIGKILL{detail}",
                )
            )
            return violations

        eco, pub, sub, manager, _ = _cdc_scenario_eco(data_dir)
        report = manager.restore()
        if report.unrecoverable:
            violations.append(
                Violation(
                    INV_CDC,
                    f"restore after poller SIGKILL reported unrecoverable: "
                    f"{report.error}",
                )
            )
            return violations
        eco.drain_all()
        pub_mapper = pub.registry.get("Doc").__mapper__
        pub_rows = len(pub_mapper._do_where({}, None, None))
        if pub_rows != writes:
            violations.append(
                Violation(
                    INV_CDC,
                    f"{writes - pub_rows} raw writes lost to the poller "
                    f"SIGKILL: publisher holds {pub_rows}/{writes} rows "
                    "after restore",
                )
            )
        if not pub.cdc_poller.idle():
            violations.append(
                Violation(
                    INV_CDC,
                    f"{pub.cdc_poller.backlog()} outbox entries still "
                    "unpublished after restore from poller SIGKILL",
                )
            )
        audit = sub.audit_replication()
        if not audit.in_sync:
            result = sub.repair_replication(report=audit)
            if not result.verified_in_sync:
                violations.append(
                    Violation(
                        INV_CDC,
                        "replicas still divergent after poller SIGKILL, "
                        f"restore (replayed={report.replayed}) and targeted "
                        "repair",
                    )
                )
    finally:
        if manager is not None:
            manager.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return violations


def run_directed_scenarios() -> Dict[str, List[Violation]]:
    """All directed scenarios; the CLI runs these before sweeping."""
    return {
        "queue.pop-deadline": pop_deadline_scenario(),
        "fleet.idle-deadline": fleet_idle_deadline_scenario(),
        "drain.no-leaked-deliveries": drain_leak_scenario(),
        "flow.unsafe-coalesce-rejected": flow_coalesce_safety_scenario(),
        "durability.crash-after-append":
            durability_crash_point_scenario("after-append"),
        "durability.crash-before-fsync":
            durability_crash_point_scenario("before-fsync"),
        "durability.crash-before-ack":
            durability_crash_point_scenario("before-ack"),
        "durability.kill-restart": durability_kill_restart_scenario(),
        "cdc.poller-crash-before-checkpoint":
            cdc_poll_crash_scenario("after-publish"),
        "cdc.poller-crash-after-checkpoint":
            cdc_poll_crash_scenario("after-checkpoint"),
        "cdc.kill-restart": cdc_kill_restart_scenario(),
    }
