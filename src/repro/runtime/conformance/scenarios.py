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

The six demos are directed scenarios too, each with a narrator
``say``: ``repair.lost-messages`` (§6.5), ``flow.shed-and-coalesce``,
``views.restore-rebuild``, ``saga.loss-healed``, and the two that run
real shard processes, ``shard.cross-process-repair``
(``runtime/transport/demo.py``) and ``durability.kill-shard``
(``durability/demo.py``). :data:`SCENARIOS` registers all of them.

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
from functools import partial, wraps
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro.broker.message import Message
from repro.broker.queue import SubscriberQueue
from repro.errors import QueueDecommissioned
from repro.durability.demo import recover_kill_scenario
from repro.runtime.conformance.checker import (
    INV_ALO,
    INV_CDC,
    INV_DURABLE,
    INV_FLOW,
    INV_IDLE,
    INV_LEAK,
    INV_POP,
    INV_SAGA,
    INV_VIEW,
    Violation,
    silent,
    view_violations,
)
from repro.runtime.conformance.harness import ScheduleConfig, run_schedule
from repro.runtime.interleave import install_hook, uninstall_hook
from repro.runtime.transport.demo import shard_mesh_scenario

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
#     python -m repro conformance --find worker.heal_wait \
#         --mode global --queue-limit 3

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

#: A heal beside live workers, one schedule per ordered mode: with the
#: pool's step gate blinded (``SubscriberWorkerPool.stepping``), an
#: apply admitted before a decommission's heal landed its object writes
#: its older row over the repaired one, and the object's next write is
#: acked as a duplicate (``replicas.converge``); with the gate, a worker
#: waits the heal out (``worker.heal_wait``).
HEAL_RACE_SCHEDULES = tuple(
    ScheduleConfig(mode=mode, queue_limit=3) for mode in ("causal", "global")
)
HEAL_RACE_MARKER = "worker.heal_wait"


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


def _claims(invariant: str, ok: str = "") -> Callable[..., Any]:
    """Make a generator of what it found broken a directed scenario:
    each text it yields is a violation of ``invariant``, and a run that
    yields none closes its narration (``say``) with ``OK: <ok>``."""

    def directed(scenario: Callable[..., Iterator[str]]) -> Callable[..., Any]:
        @wraps(scenario)
        def run(*args: Any, **params: Any) -> List[Violation]:
            violations = [Violation(invariant, text) for text in scenario(*args, **params)]
            if ok and not violations:
                params.get("say", silent)(f"OK: {ok}")
            return violations

        return run

    return directed


# -- queue.pop-deadline ------------------------------------------------------

@_claims(INV_POP)
def pop_deadline_scenario(timeout: float = 0.5, pokes: int = 3) -> Iterator[str]:
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

    if thread.is_alive():
        yield "pop never returned after a real publish"
    elif outcome.get("message") is None:
        yield (
            f"pop returned None after {outcome.get('elapsed', 0):.3f}s "
            f"with {timeout:.3f}s of patience: a spurious wakeup was "
            "treated as a timeout and the delivery was dropped"
        )


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


@_claims(INV_IDLE)
def fleet_idle_deadline_scenario(
    pools: int = 4, timeout: float = 30.0, settle_rounds: int = 3
) -> Iterator[str]:
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
    # One shared deadline: the greedy first pool may eat the whole
    # budget, but the call as a whole must not exceed it (small slack
    # for the zero-remaining waits granted to the later pools).
    if clock.now > timeout * 1.5:
        yield (
            f"wait_until_idle(timeout={timeout}) consumed {clock.now:.1f}s "
            f"across {pools} pools x {settle_rounds} rounds — the timeout "
            "was granted per pool instead of shared"
        )


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


@_claims(INV_LEAK)
def drain_leak_scenario(queue_limit: int = 4) -> Iterator[str]:
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

    if not decommission_raised:
        yield (
            "queue decommissioned mid-drain but drain did not surface "
            "QueueDecommissioned"
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
        yield (
            f"drain leaked popped deliveries {leaked}: neither acked nor "
            "returned via nack when the queue was decommissioned"
        )


# -- flow.admission-safety ---------------------------------------------------

@_claims(INV_FLOW)
def flow_coalesce_safety_scenario() -> Iterator[str]:
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

    with pub.controller():
        target = PubDoc.create(name="target", value=0)
    with pub.controller():
        target.value = 1
        target.save()  # adjacent to the create: merges into it
    if eco.metrics.value("flow.sub.coalesced") != 1 or len(queue) != 1:
        yield (
            "adjacent same-object causal writes did not coalesce "
            f"(coalesced={eco.metrics.value('flow.sub.coalesced')}, "
            f"queued={len(queue)})"
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
        yield (
            "unsafe causal coalesce was not rejected: the intervener's "
            "dependencies overlap the survivor's keys "
            f"(rejected={rejected}, queued={len(queue)})"
        )

    with pub.controller():
        target.value = 3
        target.save()  # adjacent to the rejected update: safe again
    if eco.metrics.value("flow.sub.coalesced") != 2 or len(queue) != 3:
        yield (
            "safe trailing coalesce did not happen "
            f"(coalesced={eco.metrics.value('flow.sub.coalesced')}, "
            f"queued={len(queue)})"
        )

    sub.subscriber.drain()
    row = SubDoc.__mapper__.find(target.id)
    final = row["value"] if row is not None else None
    if len(queue) or final != 3:
        yield (
            f"coalesced stream did not converge: queued={len(queue)}, "
            f"replicated value={final!r} (expected 3)"
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
        yield (
            "unsafe reverse-direction causal coalesce was not rejected: "
            "the absorbed write depends on a key the intervener bumps "
            f"(rejected={rejected - rejected_before}, queued={len(queue)})"
        )

    sub.subscriber.drain()
    row = SubDoc.__mapper__.find(target.id)
    final = row["value"] if row is not None else None
    if len(queue) or final != 5:
        yield (
            "reverse-direction stream did not converge: "
            f"queued={len(queue)}, replicated value={final!r} (expected 5)"
        )


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
    crash: str,
    build: Callable[[str], Tuple[Any, ...]],
    wound: Callable[..., None],
    claims: Callable[..., Iterable[str]] = lambda *_: (),
    kill_timeout: Optional[float] = None,
) -> Iterator[str]:
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
    have cost. Yields what it finds broken; ``crash`` names the wound
    in the text."""
    import shutil
    import tempfile

    from repro.durability.wal import SimulatedCrash

    data_dir = tempfile.mkdtemp(prefix="repro-conf-crash-")
    manager = None
    try:
        lost = returned = 0
        if kill_timeout is not None:
            problem, returned = _wound_by_sigkill(
                build, wound, data_dir, kill_timeout
            )
            if problem is not None:
                yield problem
                return
        else:
            wounded = build(data_dir)
            try:
                wound(wounded, None)
            except SimulatedCrash:
                wal = wounded[3].wal
                wal.injector = None
                lost = wal.drop_buffered_tail()
            else:
                yield (
                    f"the injector for {crash} never fired — the "
                    "scenario exercised nothing"
                )
                return
        fixture = eco, _pub, sub, manager, _doc_cls = build(data_dir)
        report = manager.restore()
        if report.unrecoverable:
            yield f"restore after {crash} reported unrecoverable: {report.error}"
            return
        eco.drain_all()
        if not sub.repair_replication().verified_in_sync:
            yield (
                f"replicas still divergent after {crash}, restore "
                f"(replayed={report.replayed}, lost={lost} buffered "
                "records) and targeted repair"
            )
        yield from claims(fixture, report, returned)
    finally:
        if manager is not None:
            manager.close()
        shutil.rmtree(data_dir, ignore_errors=True)


@_claims(INV_DURABLE)
def durability_crash_point_scenario(point: str, writes: int = 8) -> Iterator[str]:
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

    yield from _crash_then_restore(
        f"a {point!r} crash",
        lambda data_dir: _durability_scenario_eco(data_dir, fsync),
        wound,
    )


@_claims(INV_DURABLE)
def durability_kill_restart_scenario(timeout: float = 30.0) -> Iterator[str]:
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

    yield from _crash_then_restore(
        "SIGKILL",
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


@_claims(INV_CDC)
def cdc_poll_crash_scenario(point: str, writes: int = 8) -> Iterator[str]:
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

    yield from _crash_then_restore(
        crash, _cdc_scenario_eco, wound, _cdc_claims(writes, crash)
    )


@_claims(INV_CDC)
def cdc_kill_restart_scenario(
    timeout: float = 30.0, writes: int = 16
) -> Iterator[str]:
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

    yield from _crash_then_restore(
        "poller SIGKILL", _cdc_scenario_eco, wound,
        _cdc_claims(writes, "poller SIGKILL"), kill_timeout=timeout,
    )


# -- the demos: directed scenarios with a narrator ---------------------------
#
# Each takes ``say`` (the narrator; ``repro <command> --demo`` passes
# ``print``) and its parameters as keyword defaults, which the CLI reads
# as flags.


def _say_metrics(say: Callable[[str], None], eco: Any, prefix: str) -> None:
    say("")
    say(f"{prefix}* metrics:")
    for name, value in eco.metrics.snapshot(prefix).items():
        if isinstance(value, dict):
            value = f"count={value['count']} mean={value['mean']:.4g}"
        say(f"  {name:<40} {value}")


@_claims(INV_ALO, ok="replicas digest-equal, queue intact")
def repair_loss_scenario(
    say: Callable[[str], None] = silent, objects: int = 40, lose: int = 3
) -> Iterator[str]:
    """§6.5 in miniature: lose write-messages under causal delivery,
    watch the subscriber wedge, then audit and targeted-repair it back to
    digest-equality without decommissioning anything."""
    from repro.apps import build_replicated_pair

    eco, pub, sub, User = build_replicated_pair(
        fields={"name": str, "score": int}, model="User"
    )
    with pub.controller():
        users = [User.create(name=f"user-{i}", score=i) for i in range(objects)]
    sub.subscriber.drain()
    say(f"replicated {objects} objects; injecting loss of {lose} messages...")

    eco.broker.drop_next(lose)
    # The second wave writes the same objects again: its messages depend
    # on the lost increments and wedge the causal queue (§6.5 deadlock).
    for _wave in range(2):
        with pub.controller():
            for user in users[:lose]:
                user.score += 1000
                user.save()
    sub.subscriber.drain()

    result = sub.repair_replication()
    for line in result.audit.summary_lines():
        say(line)
    if result.audit.in_sync:
        yield (
            f"losing {lose} messages did not diverge the replicas: the "
            "scenario exercised nothing"
        )
        return
    say("")
    for line in result.summary_lines():
        say(line)
    _say_metrics(say, eco, "repair.")
    link = eco.monitor.link("pub", "sub")
    say(
        f"queue after repair: queued={link.queued} "
        f"in_flight={link.in_flight} decommissioned={link.decommissioned}"
    )
    if not result.verified_in_sync:
        yield "replicas still divergent after repair"
    if link.decommissioned:
        yield "repair decommissioned the queue"


@_claims(INV_FLOW, ok="weak publishes shed under pressure (queue "
         "survived), hot updates coalesced and popped in batches, replicas converged")
def flow_pressure_scenario(
    say: Callable[[str], None] = silent, writes: int = 200, queue_limit: int = 64
) -> Iterator[str]:
    """Flood a weak-mode bounded queue nobody drains: graduated
    backpressure must shed publishes before the kill cliff, and the
    queue must survive. Then a hot-object update storm must coalesce and
    drain through batched pops of single applies to the final values."""
    from repro.apps import build_replicated_pair
    from repro.core import Ecosystem
    from repro.runtime.flow import FlowConfig

    eco = Ecosystem(queue_limit=queue_limit)
    eco.enable_flow(FlowConfig(batch_max=8))
    eco, pub, sub, Item = build_replicated_pair(
        eco, {"name": str, "score": int}, "Item", mode="weak"
    )
    queue = sub.subscriber.queue
    flow = queue.flow
    say(
        f"flow demo: queue_limit={queue_limit} "
        f"(credits high={flow.high} low={flow.low}), {writes} flood writes"
    )

    with pub.controller():
        for i in range(writes):
            Item.create(name=f"flood-{i}", score=0)
    shed = eco.metrics.value("flow.sub.shed")
    say(
        f"after flood: queued={len(queue)} shed={shed} state={flow.state} "
        f"credits={flow.credits} decommissioned={queue.decommissioned}"
    )
    for link in eco.monitor.health().links:
        say("  " + link.summary_line())
    say(f"drained {sub.subscriber.drain()} messages")

    with pub.controller():
        hot = [Item.create(name=f"hot-{i}", score=0) for i in range(4)]
    rounds = 25
    with pub.controller():
        for _round in range(rounds):
            for item in hot:
                item.score += 1
                item.save()
    coalesced = eco.metrics.value("flow.sub.coalesced")
    say(
        f"after update storm: {rounds * len(hot)} updates -> "
        f"queued={len(queue)} coalesced={coalesced} state={flow.state}"
    )
    sub.subscriber.drain()
    _say_metrics(say, eco, "flow.")

    if shed <= 0:
        yield "no weak publishes were shed under pressure"
    if queue.decommissioned:
        yield "queue decommissioned: shedding failed to prevent the kill"
    if coalesced <= 0:
        yield "hot-object updates did not coalesce"
    if not eco.metrics.snapshot("flow.")["flow.sub.batch_size"]["count"]:
        yield "no batched pops recorded"
    if len(queue):
        yield f"{len(queue)} messages left queued"
    replicas = [sub.registry["Item"].__mapper__.find(item.id) for item in hot]
    if any(row is None or row["score"] != rounds for row in replicas):
        yield "hot objects did not converge to the final score"


def _views_eco(data_dir: str) -> Tuple[Any, ...]:
    """A WAL-logging pair whose subscriber keeps four derived views."""
    from repro.apps import build_replicated_pair
    from repro.core import Ecosystem
    from repro.views import CountView, FeedView, SumView, TopKView

    eco = Ecosystem()
    manager = eco.enable_durability(data_dir=data_dir, snapshot_every=10_000)
    eco, pub, sub, Post = build_replicated_pair(
        eco, {"author": str, "score": int}, "Post"
    )
    views = sub.enable_views()
    views.declare(CountView("posts", "Post"))
    views.declare(SumView("karma", "Post", "score"))
    views.declare(TopKView("leaderboard", "Post", "score", k=3))
    views.declare(FeedView("timelines", "Post", "author", limit=5))
    return eco, pub, sub, manager, Post


@_claims(INV_VIEW, ok="aggregates match recomputation, cache fresh, rebuild exact")
def views_restore_scenario(
    say: Callable[[str], None] = silent, writes: int = 30
) -> Iterator[str]:
    """Derived read models (count, sum, top-k, per-author feeds) kept in
    the apply path behind a versioned cache: every aggregate equals its
    recomputation after creates, and after deletes and updates; a warm
    read hits and a read after a write is fresh; a kill-and-restart over
    the same WAL rebuilds every view to its pre-crash value."""
    from repro.durability.wal import SimulatedCrash

    found: List[str] = []
    before: Dict[str, Any] = {}

    def check(views: Any, when: str) -> None:
        say(f"{when}:")
        for spec in views.specs():
            say(f"  {spec.name:<12} {views.peek(spec.name)!r}")
        found.extend(violation.detail for violation in view_violations(views))

    def wound(fixture: Tuple[Any, ...], returned: Any) -> None:
        _eco, pub, sub, manager, post_cls = fixture
        authors = ["ada", "bob", "cyd"]
        say(f"views demo: {writes} creates across {len(authors)} authors")
        with pub.controller():
            posts = [
                post_cls.create(author=authors[i % len(authors)], score=i)
                for i in range(writes)
            ]
        sub.subscriber.drain()
        views = sub.views
        check(views, "after create workload")

        views.read("karma")  # the last fold wrote it through: hit
        hits = views.cache.stats()["hits"]
        with pub.controller():
            posts[0].score += 1000
            posts[0].save()
        sub.subscriber.drain()
        fresh = views.read("karma")  # the apply wrote the new sum through
        expected = sum(range(writes)) + 1000
        say(f"cache: {views.cache.stats()}; post-write karma={fresh}")
        if hits < 1:
            found.append("warm read missed the cache")
        if fresh != expected:
            found.append(f"stale read after an applied write ({fresh} != {expected})")

        with pub.controller():
            for post in posts[: len(posts) // 3]:
                post.destroy()
            for post in posts[len(posts) // 3:]:
                post.score += 7
                post.save()
        sub.subscriber.drain()
        check(views, "after delete/update workload")
        before.update({spec.name: views.canonical(spec.name) for spec in views.specs()})
        manager.wal.sync()
        raise SimulatedCrash("killed after the workload")

    def claims(
        fixture: Tuple[Any, ...], report: Any, returned: int
    ) -> Iterator[str]:
        eco, _pub, sub, _manager, _post_cls = fixture
        say(
            f"restore: replayed={report.replayed} requeued={report.requeued} "
            f"rebuilds={eco.metrics.value('views.sub.rebuilds')}"
        )
        check(sub.views, "after restore")
        for name, value in before.items():
            # Feeds lose arrival order across a rebuild: compare canonically.
            if sub.views.canonical(name) != value:
                yield f"rebuilt view {name!r} diverged: {sub.views.peek(name)!r}"

    yield from _crash_then_restore(
        "a kill after the workload", _views_eco, wound, claims
    )
    yield from found


@_claims(INV_SAGA, ok="books balanced, replicas digest-equal; divergence "
         "healed by targeted repair, books still balance")
def saga_heal_scenario(
    say: Callable[[str], None] = silent,
    sagas: int = 6,
    mode: str = "causal",
    seed: int = 0,
) -> Iterator[str]:
    """Order/payment/inventory sagas through both front-ends (ORM writes
    plus raw writes via the transactional outbox), declined payments
    compensated by raw releases: the books balance and every replica is
    digest-equal at quiescence. Then one injected broker loss must be
    detected and healed by targeted repair, the books still balanced."""
    from repro.cdc.saga import (
        build_saga_ecosystem, check_saga_invariant, run_saga, run_sagas,
    )

    saga = build_saga_ecosystem(mode=mode)
    say(
        f"saga demo: {sagas} sagas, mode={mode}, "
        "order=relational payment/inventory=document, "
        "reservations via raw-write outbox"
    )
    for o in run_sagas(saga, sagas, seed=seed):
        verdict = "approved " if o.approved else "declined, compensated"
        say(f"  order {o.order_id}: qty={o.qty} [{verdict}]")
    yield from check_saga_invariant(saga)
    services = saga.subscribing_services()
    for svc in services:
        report = svc.audit_replication()
        if not report.in_sync:
            yield (
                f"{svc.name}: {report.divergent_total} objects divergent "
                "after a clean saga run"
            )
    snapshot = saga.eco.metrics.snapshot()
    say(
        f"cdc: {snapshot.get('cdc.inventory.appended', 0)} outbox entries "
        f"appended, {snapshot.get('cdc.inventory.published', 0)} published"
    )

    say("injecting broker loss mid-saga...")
    saga.eco.broker.drop_next(1)
    run_saga(saga, index=sagas, qty=3, approved=True)
    saga.eco.drain_all()
    repairs = [svc.repair_replication() for svc in services]
    if all(result.audit.in_sync for result in repairs):
        yield "the injected loss diverged no replica: the repair was never exercised"
    for result in repairs:
        if not result.audit.in_sync:
            say(
                f"  {result.subscriber}: {result.audit.divergent_total} "
                f"divergent objects detected, {result.objects_repaired} repaired"
            )
        if not result.verified_in_sync:
            yield f"{result.subscriber}: divergence survived targeted repair"
    yield from (f"after repair: {p}" for p in check_saga_invariant(saga))


#: name -> scenario. Each returns its violations when called with no
#: arguments; ``conformance`` runs them all, silently, before sweeping,
#: and the six demo commands run theirs narrated (``repro <command>
#: --demo``; docs/architecture.md's failure-model table names the
#: scenario that executes each row).
SCENARIOS: Dict[str, Callable[..., List[Violation]]] = {
    "queue.pop-deadline": pop_deadline_scenario,
    "fleet.idle-deadline": fleet_idle_deadline_scenario,
    "drain.no-leaked-deliveries": drain_leak_scenario,
    "flow.unsafe-coalesce-rejected": flow_coalesce_safety_scenario,
    "durability.crash-after-append":
        partial(durability_crash_point_scenario, point="after-append"),
    "durability.crash-before-fsync":
        partial(durability_crash_point_scenario, point="before-fsync"),
    "durability.crash-before-ack":
        partial(durability_crash_point_scenario, point="before-ack"),
    "durability.kill-restart": durability_kill_restart_scenario,
    "cdc.poller-crash-before-checkpoint":
        partial(cdc_poll_crash_scenario, point="after-publish"),
    "cdc.poller-crash-after-checkpoint":
        partial(cdc_poll_crash_scenario, point="after-checkpoint"),
    "cdc.kill-restart": cdc_kill_restart_scenario,
    "repair.lost-messages": repair_loss_scenario,
    "flow.shed-and-coalesce": flow_pressure_scenario,
    "views.restore-rebuild": views_restore_scenario,
    "saga.loss-healed": saga_heal_scenario,
    "shard.cross-process-repair": shard_mesh_scenario,
    "durability.kill-shard": recover_kill_scenario,
}
