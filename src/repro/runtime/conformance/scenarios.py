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

The module also pins the two *committed races* (generation gate vs
in-flight deliveries; ack after decommission) — each as a base config
and the trace marker of its race window, which :func:`find_schedule`
turns into a seed on demand: a seed is an index into one particular
dealing of the yield points and rots whenever a PR moves one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

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
from repro.runtime.conformance.harness import ScheduleConfig, run_schedule
from repro.runtime.interleave import install_hook, uninstall_hook

# -- committed races ---------------------------------------------------------
#
# A race is committed as its base config and the event that marks its
# window, never as a seed. The regression tests search for a seed that
# runs clean, enters the window, *and* violates with the fix reverted
# (``find_schedule(..., accept=...)``), so a schedule cannot silently rot
# into not exercising the bug. To see what the search finds today:
#
#     python -m repro conformance --find generation.deferred --generation-bump
#     python -m repro conformance --find queue.ack.tolerated \
#         --messages 12 --queue-limit 4

#: Generation gate vs in-flight deliveries: with ``peek_unacked``
#: blinded, such a schedule flushes the app's counters while an older-
#: generation delivery is popped-but-unacked (``generation.flush-safety``).
GATE_RACE_SCHEDULE = ScheduleConfig(
    mode="causal", workers=3, messages=10, generation_bump=True
)
GATE_RACE_MARKER = "generation.deferred"

#: Ack after decommission: with the legacy strict ``ack``, such a
#: schedule kills a worker mid-message when the queue overflows
#: (``worker.no-silent-death``); with the fix the ack is a tolerated
#: no-op (``queue.ack.tolerated`` appears in the trace).
DECOMMISSION_ACK_SCHEDULE = ScheduleConfig(
    mode="causal", workers=3, messages=12, queue_limit=4
)
DECOMMISSION_ACK_MARKER = "queue.ack.tolerated"


def trace_has(trace: List[str], marker: str) -> bool:
    """Does any normalized trace line contain the given event label?"""
    return any(marker in line for line in trace)


def find_schedule(
    base_config: ScheduleConfig,
    marker: str,
    seeds: Iterable[int] = range(60),
    accept: Optional[Callable[[ScheduleConfig], bool]] = None,
) -> ScheduleConfig:
    """``base_config`` at the first of ``seeds`` whose run is clean,
    whose trace contains ``marker``, and for which ``accept(config)``
    holds (the regression tests pass "violates with the fix reverted").
    Raises :class:`LookupError` naming the first of the three conditions
    that no seed met."""
    clean = marked = 0
    for seed in seeds:
        config = replace(base_config, seed=seed)
        result = run_schedule(config)
        if not result.ok:
            continue
        clean += 1
        if not trace_has(result.trace, marker):
            continue
        marked += 1
        if accept is None or accept(config):
            return config
    if not clean:
        unmet = "none ran clean"
    elif not marked:
        unmet = f"{clean} ran clean, none of them reached {marker!r}"
    else:
        unmet = (
            f"{marked} ran clean and reached {marker!r}, none of them was "
            "accepted"
        )
    shape = " ".join([f"--mode {base_config.mode}", *base_config.switches()])
    raise LookupError(f"no schedule for [{shape}] in seeds {seeds!r}: {unmet}")


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
    from repro.core import Ecosystem
    from repro.runtime import workers as workers_mod

    clock = _FakeClock()
    fleet = workers_mod.WorkerFleet(Ecosystem())
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
    from repro.apps import build_replicated_pair
    from repro.core import Ecosystem

    eco, pub, sub, PubDoc = build_replicated_pair(
        Ecosystem(queue_limit=queue_limit)
    )

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
    from repro.apps import build_replicated_pair
    from repro.core import Ecosystem
    from repro.runtime.flow import FlowConfig

    eco = Ecosystem()
    eco.enable_flow(FlowConfig(batch_max=4))
    eco, pub, sub, PubDoc = build_replicated_pair(
        eco, {"name": str, "value": int}
    )
    SubDoc = sub.registry["Doc"]

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


def _cdc_scenario_eco(data_dir: str) -> Tuple[Any, ...]:
    """The durability fixture with the publisher's CDC front-end armed:
    raw writes go through the transactional outbox and the poller tails
    them into the ordinary publisher path."""
    fixture = _durability_scenario_eco(data_dir, "off")
    fixture[1].enable_outbox()
    return fixture


def _wound_in_child(
    build: Callable[[str], Tuple[Any, ...]], wound: Callable[..., None],
    data_dir: str, conn: Any,
) -> None:
    """Child half of a kill-restart scenario: build the fixture and run a
    ``wound`` armed with a *hard* injector, which SIGKILLs this process
    mid-step. Each publish the wound reports as returned is a frame on
    ``conn``; anything else sent there is a failure diagnostic — a
    healthy run dies before reaching it."""
    try:
        wound(build(data_dir), lambda count: conn.send(("returned", count)))
        conn.send(("survived", None))
    except Exception as exc:  # pragma: no cover - diagnostics only
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass


def _wound_by_sigkill(
    build: Callable[[str], Tuple[Any, ...]], wound: Callable[..., None],
    data_dir: str, timeout: float,
) -> Tuple[Optional[str], int]:
    """Parent half: fork the child, insist it died by genuine
    ``-SIGKILL`` (a clean exit means the injector never fired), and read
    its frames. Returns ``(problem or None, publishes that returned)``."""
    import multiprocessing
    import signal

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=_wound_in_child, args=(build, wound, data_dir, child_conn),
        name="conformance-kill-child",
    )
    process.start()
    child_conn.close()
    process.join(timeout)
    if process.is_alive():
        process.terminate()
        process.join(5.0)
        return (
            f"kill-restart child hung past {timeout:.0f}s instead of "
            "dying at its crash point"
        ), 0
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
        return (
            f"child exited {process.exitcode} instead of dying by "
            f"SIGKILL{detail}"
        ), returned
    return None, returned


def _crash_then_restore(
    invariant: str,
    crash: str,
    build: Callable[[str], Tuple[Any, ...]],
    wound: Callable[..., None],
    claims: Callable[..., Iterable[str]] = lambda *_: (),
    kill_timeout: Optional[float] = None,
) -> List[Violation]:
    """The §4.4 recovery ladder every crash scenario climbs.

    ``build(data_dir)`` declares the pipeline — twice: a first
    incarnation for ``wound(fixture, returned)`` to drive into its crash
    (a :class:`SimulatedCrash` in this process, which then also loses
    the unsynced group-commit buffer; with ``kill_timeout``, a genuine
    SIGKILL in a forked child), abandoned unclosed because that is what
    a crash means; and a second, restored over the same data dir. The
    restore must be recoverable, and after one drain and at most one
    targeted repair the replicas must be digest-equal. ``claims(fixture,
    report, returned)`` then yields whatever else that crash must not
    have cost. Violations carry ``invariant``; ``crash`` names the wound
    in their text."""
    import shutil
    import tempfile

    from repro.durability.wal import SimulatedCrash

    data_dir = tempfile.mkdtemp(prefix="repro-conf-crash-")
    violations: List[Violation] = []

    def violated(text: str) -> List[Violation]:
        violations.append(Violation(invariant, text))
        return violations

    manager = None
    try:
        lost = returned = 0
        if kill_timeout is not None:
            problem, returned = _wound_by_sigkill(
                build, wound, data_dir, kill_timeout
            )
            if problem is not None:
                return violated(problem)
        else:
            wounded = build(data_dir)
            try:
                wound(wounded, None)
            except SimulatedCrash:
                wal = wounded[3].wal
                wal.injector = None
                lost = wal.drop_buffered_tail()
            else:
                return violated(
                    f"the injector for {crash} never fired — the "
                    "scenario exercised nothing"
                )
        fixture = eco, _pub, sub, manager, _doc_cls = build(data_dir)
        report = manager.restore()
        if report.unrecoverable:
            return violated(
                f"restore after {crash} reported unrecoverable: "
                f"{report.error}"
            )
        eco.drain_all()
        if not sub.repair_replication().verified_in_sync:
            violated(
                f"replicas still divergent after {crash}, restore "
                f"(replayed={report.replayed}, lost={lost} buffered "
                "records) and targeted repair"
            )
        for problem in claims(fixture, report, returned):
            violated(problem)
    finally:
        if manager is not None:
            manager.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return violations


def durability_crash_point_scenario(
    point: str, writes: int = 8
) -> List[Violation]:
    """Crash at one WAL crash point, then prove restore convergence.

    The first incarnation publishes causal writes (and, for
    ``before-ack``, drains) with a :class:`CrashInjector` armed at
    ``point``; the injected :class:`SimulatedCrash` abandons it
    mid-flight — unacked deliveries popped, file handle open, no clean
    close or snapshot. ``before-fsync`` runs the ``interval`` policy, so
    dropping the unsynced group-commit buffer models the real loss
    window. The replicas must converge to digest-equality (directly, or
    via targeted repair for the writes the loss window genuinely
    discarded)."""
    from repro.durability.wal import FSYNC_INTERVAL, FSYNC_OFF, CrashInjector

    fsync = FSYNC_INTERVAL if point == "before-fsync" else FSYNC_OFF
    after = 1 if point == "before-fsync" else 3

    def wound(fixture: Tuple[Any, ...], returned: Any) -> None:
        _eco, pub, sub, manager, doc_cls = fixture
        manager.wal.injector = CrashInjector(point, after_records=after)
        for i in range(writes):
            with pub.controller():
                doc_cls.create(name=f"doc-{i}", value=i)
        sub.subscriber.drain()

    return _crash_then_restore(
        INV_DURABLE, f"a {point!r} crash",
        lambda data_dir: _durability_scenario_eco(data_dir, fsync),
        wound,
    )


def durability_kill_restart_scenario(timeout: float = 30.0) -> List[Violation]:
    """The uncatchable crash: a child process dies by genuine SIGKILL
    mid-append, and the parent restores from the orphaned data dir.

    No ``finally`` blocks run in the child, no buffers get the chance
    to flush politely — exactly the failure the WAL exists for. The
    orphaned log must be whole lines (the kill lands inside a publish
    step, whose records reach the file in one write or not at all) and
    every publish that had returned must come back."""
    from repro.durability.wal import CrashInjector

    def wound(fixture: Tuple[Any, ...], returned: Any) -> None:
        _eco, pub, _sub, manager, doc_cls = fixture
        manager.wal.injector = CrashInjector(
            "after-append", after_records=9, hard=True
        )
        for i in range(64):
            with pub.controller():
                doc_cls.create(name=f"kill-{i}", value=i)
            returned(i + 1)

    def claims(
        fixture: Tuple[Any, ...], report: Any, returned: int
    ) -> Iterator[str]:
        eco, _pub, _sub, _manager, doc_cls = fixture
        if eco.recorder.events("durability.torn_tail"):
            yield (
                "SIGKILL left a torn line: a step reaches the file as "
                "whole lines, in one write, or not at all"
            )
        if doc_cls.count() < returned:
            # fsync ``off``'s promise: a publish whose save() returned
            # is in the kernel, whatever happens to the process.
            yield (
                f"{returned} publishes had returned before the SIGKILL, "
                f"restore brought back {doc_cls.count()}"
            )
        if not report.replayed and report.snapshot_id is None:
            yield (
                "restore after SIGKILL recovered nothing: no snapshot "
                "and an empty WAL tail"
            )

    return _crash_then_restore(
        INV_DURABLE, "SIGKILL",
        lambda data_dir: _durability_scenario_eco(data_dir, "off"),
        wound, claims, kill_timeout=timeout,
    )


def _cdc_claims(writes: int, crash: str) -> Callable[..., Iterator[str]]:
    """What a poller crash must not cost: the restored poller re-tails
    the outbox to its end, and every committed raw write is a row on
    both sides."""

    def claims(
        fixture: Tuple[Any, ...], report: Any, returned: int
    ) -> Iterator[str]:
        _eco, pub, sub, _manager, doc_cls = fixture
        poller = pub.cdc_poller
        if not poller.idle():
            yield (
                f"{poller.backlog()} outbox entries still unpublished "
                f"after restore from {crash} (cursor={poller.cursor})"
            )
        for side, rows in (
            ("publisher", doc_cls.count()),
            ("subscriber", sub.registry["Doc"].count()),
        ):
            if rows != writes:
                yield (
                    f"{side} holds {rows}/{writes} raw-written rows "
                    f"after {crash} and restore"
                )

    return claims


def _raw_writes(fixture: Tuple[Any, ...], writes: int) -> None:
    _eco, pub, _sub, _manager, doc_cls = fixture
    raw = pub.raw_session()
    for i in range(writes):
        raw.insert(doc_cls, {"name": f"cdc-{i}", "value": i})


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
    from repro.cdc import PollCrash

    after = 1 if point == "after-checkpoint" else 3
    crash = f"a {point!r} poll crash"

    def wound(fixture: Tuple[Any, ...], returned: Any) -> None:
        _raw_writes(fixture, writes)
        fixture[1].cdc_poller.injector = PollCrash(point, after=after)
        fixture[0].cdc.poll_all()

    return _crash_then_restore(
        INV_CDC, crash, _cdc_scenario_eco, wound, _cdc_claims(writes, crash)
    )


def cdc_kill_restart_scenario(
    timeout: float = 30.0, writes: int = 16
) -> List[Violation]:
    """The acceptance crash: SIGKILL the process hosting the CDC poller
    mid-tail, restore over the same data dir, and prove digest-equal
    replicas with zero lost outbox entries."""
    from repro.cdc import PollCrash

    def wound(fixture: Tuple[Any, ...], returned: Any) -> None:
        _raw_writes(fixture, writes)
        fixture[1].cdc_poller.injector = PollCrash(
            "after-publish", after=5, hard=True
        )
        fixture[0].cdc.poll_all()

    return _crash_then_restore(
        INV_CDC, "poller SIGKILL", _cdc_scenario_eco, wound,
        _cdc_claims(writes, "poller SIGKILL"), kill_timeout=timeout,
    )


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
