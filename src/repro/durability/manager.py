"""The durability manager: the WAL sink, snapshots, and restore.

``Ecosystem.enable_durability`` builds one :class:`DurabilityManager`
per process and attaches it to the broker (which hands it to every
subscriber queue, existing and future) in place of
:data:`DURABILITY_OFF`, the null sink the pipeline logs into while
durability is off. The pipeline announces each durable state
transition once, with ``interleave.emit`` *inside* the lock that orders
it, and :meth:`DurabilityManager.log_transition` — the log's one sink —
appends it as one WAL record, so WAL order equals effect order. The
transition's row in ``interleave.TRANSITIONS`` names its record type
and its restore owner; ``wal.LAYOUTS`` lays the record out (the hot
records as literal text, the rest as dicts; the sink is the one place
that skips logging while a restore replays). The record types,
and the owner that replays each, are tabled in docs/durability.md
("Restore").

**Steps.** Under fsync ``off`` the pipeline brackets its three
multi-record units with ``with manager.step:`` — ``Broker.publish``
from the ``out`` record to its last local enqueue; the applies of what
was popped and the acks that settle them, per round of
``SynapseSubscriber.drain`` and per batch of
``SubscriberWorkerPool._run``. Records logged by a thread inside a
step wait in the WAL's buffer, and the end of the step — of every step,
nested ones too — writes the whole buffer in one ``write``: before the
step's caller is answered, and (the publish step ends there) before
anything is handed to a forwarder. A record logged outside any step is
written at once, and any write takes every thread's buffered lines, so
the file is always a prefix of append order. Every engine being
in-memory, a process killed mid-step is indistinguishable from one
killed a few microseconds earlier, at the previous step's end:
what it had applied or acked but not written is redelivered after
restart and found applied by its counters. ``interval`` and ``always`` ignore steps. The clean end
of an outermost step holds no lock, so that is where the
``snapshot_every`` cadence is checked.

**What the manager keeps** is what belongs to the log: the sink, the
step, the publish gate a snapshot waits behind
(:meth:`DurabilityManager.open_publish`), the snapshot store and its
cadence, and :meth:`restore`, which is
ARIES-lite — load the latest valid snapshot and hand each section to
its owner, replay the WAL tail past its pin handing each record to its
owner by type (the queue drops a replayed ``pub`` its subscriber's
counters say is applied; an ``apply`` re-lands through the
subscriber's own step with a raw persist, no callbacks, unless the
counters say the same), let every queue re-inject what it rebuilt, and
move the process-wide message sequence past every restored uid so new
publishes cannot reuse one. No queue, version-store or row logic lives
here. What
the tail cannot bring back (columns a callback computed, unpublished
columns) is tabled in docs/durability.md.

If the log is unrecoverable (mid-log corruption, missing segment, newer
wire version) restore keeps the snapshot state, reports
``unrecoverable=True`` and the caller re-enters bootstrap/repair — the
pre-durability recovery ladder (docs/recovery.md).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.broker.message import Message
from repro.durability import wal
from repro.durability.datadir import snapshot_dir, wal_dir
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import (
    FSYNC_OFF,
    DEFAULT_GROUP_MAX,
    DEFAULT_SEGMENT_RECORDS,
    SegmentedWAL,
)
from repro.errors import WALCorrupt
from repro.runtime.interleave import TRANSITIONS, Transition, yield_point
from repro.runtime.tracing import STAGE_WAL, STAGE_WAL_FLUSH, trace_now


def _never(message: Message) -> bool:
    return False


@dataclass
class RestoreReport:
    """What :meth:`DurabilityManager.restore` did."""

    snapshot_id: Optional[int] = None
    replayed: int = 0
    requeued: int = 0
    applied: int = 0
    position: Optional[Tuple[int, int]] = None
    #: The WAL could not be trusted past ``position``; snapshot state
    #: was kept and the caller should re-enter bootstrap/repair.
    unrecoverable: bool = False
    error: str = ""
    #: Services whose queues/state may be behind after an unrecoverable
    #: log — the bootstrap/repair worklist.
    stale_services: List[str] = field(default_factory=list)


class _Step(threading.local):
    """``with manager.step:`` — one step of the pipeline (module
    docstring, "Steps"): under fsync ``off`` the records the thread logs
    inside it wait in the WAL's buffer and reach the kernel in one
    write when it ends. One object serves every thread, and steps nest:
    the open count is the thread's own."""

    depth = 0
    #: The last traced message the thread logged inside its open step:
    #: the ``wal.flush`` span of the write that ends the step goes there.
    trace = None
    #: Publishes the thread has open (``DurabilityManager.open_publish``).
    opened = 0

    def __init__(self, manager: "DurabilityManager") -> None:
        self._manager = manager
        self._wal = manager.wal

    def __enter__(self) -> None:
        self.depth += 1

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        self.depth -= 1
        manager = self._manager
        if self.opened:
            # The first step to end after a publish's bump is its
            # publish step: the publish closes here (a snapshot's sync
            # writes what the step left in the buffer), before the
            # snapshot below, which so never waits on it.
            manager.close_publish()
        trace = self.trace
        if trace is None:
            self._wal.flush()
        else:
            self.trace = None
            start = trace_now()
            if self._wal.flush():
                trace.add(STAGE_WAL_FLUSH, start, trace_now() - start)
        if exc_type is None and not self.depth and manager.snapshot_every is not None:
            manager.maybe_snapshot()


class DurabilityOff:
    """Durability off: ``eco.durability`` until ``enable_durability``,
    and every queue's log under it. The sink the pipeline logs through
    does nothing, a step is a ``nullcontext`` and a snapshot saves
    nothing. Not a :class:`DurabilityManager`: it owns no
    ``durability.*`` instrument."""

    step = nullcontext()

    def _nothing(self, *args: Any) -> None:
        pass

    log_transition = snapshot = close = open_publish = close_publish = _nothing


DURABILITY_OFF = DurabilityOff()


class DurabilityManager:
    """Per-process durability: one WAL + snapshot store for the
    ecosystem's local queues, version stores and engine rows."""

    def __init__(
        self,
        ecosystem: Any,
        data_dir: str,
        fsync: str = FSYNC_OFF,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        group_max: int = DEFAULT_GROUP_MAX,
        snapshot_every: Optional[int] = None,
    ) -> None:
        self.ecosystem = ecosystem
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        recorder = ecosystem.recorder
        self.wal = SegmentedWAL(
            wal_dir(data_dir),
            fsync=fsync,
            segment_records=segment_records,
            group_max=group_max,
            metrics=ecosystem.metrics,
            recorder=recorder,
        )
        self.snapshots = SnapshotStore(snapshot_dir(data_dir), recorder=recorder)
        #: Auto-snapshot cadence in WAL appends; None = explicit only.
        self.snapshot_every = snapshot_every
        #: ``wal.appends`` when the last snapshot was taken.
        self._snapshot_mark = 0
        self._snapshot_lock = threading.Lock()
        #: The publish gate (:meth:`open_publish`): publishes open, and
        #: snapshots waiting or capturing.
        self._gate = threading.Condition()
        self._open = self._snapshots = 0
        self.step = _Step(self)
        #: True while :meth:`restore` runs: the sink is a no-op so
        #: replayed effects are not re-logged.
        self._restoring = False
        #: Restored CDC poller cursors (service -> outbox seq), built
        #: set-to-max from snapshot + ``cdc``/``out`` records and pushed
        #: into the live pollers at the end of :meth:`restore`.
        self.cdc_cursors: Dict[str, int] = {}
        metrics = ecosystem.metrics
        self._snap_count = metrics.counter("durability.snapshot.count")
        self._replayed = metrics.counter("durability.restore.replayed")
        self._requeued = metrics.counter("durability.restore.requeued")
        self._restored_applies = metrics.counter("durability.restore.applied")
        self._unrecoverable = metrics.counter("durability.unrecoverable")

    # -- the sink (called through interleave.emit, see module doc) ----------

    def _append(
        self, rec: Union[Dict[str, Any], str], message: Optional[Message] = None
    ) -> None:
        """Append one record — a dict, or the text one of ``wal``'s
        layouts made of it. ``message`` is the message the record is
        about: its append is timed into the message's trace when it has
        one, and that trace is where the write of the step it belongs to
        will show."""
        step = self.step
        held = step.depth > 0
        trace = message.trace if message is not None else None
        if trace is None:
            self.wal.append(rec, hold=held)
            return
        start = trace_now()
        self.wal.append(rec, hold=held)
        trace.add(STAGE_WAL, start, trace_now() - start)
        if held:
            step.trace = trace

    def log_transition(
        self, transition: Transition, fields: Tuple[Any, ...]
    ) -> None:
        """The log's one sink: append ``transition``'s WAL record, laid
        out by ``wal.LAYOUTS`` from its fields. ``interleave.emit``
        calls it inside the lock that orders the transition. When the
        last field is a message, the record is about it (its trace times
        the append)."""
        if self._restoring:
            return  # a replayed effect: do not encode its body for nothing
        kind = transition.record
        message = fields[-1] if isinstance(fields[-1], Message) else None
        if kind == "pub" and message.counters is not None:
            # A local delivery (it carries the publisher-side counters):
            # its ``out`` record names this queue, and replay derives
            # the ``pub``. Only a forwarded delivery, whose ``out`` is in
            # another process's log, is logged here. The write that ends
            # the publish step still shows on the delivery's trace.
            if message.trace is not None and self.step.depth:
                self.step.trace = message.trace
            return
        if kind == "out":
            # The payload plus the publisher version-store counters its
            # own bump left (``Message.counters``, read inside the bump's
            # script): replay restores both the outbound intent and the
            # counter state new publishes will continue from. Re-read
            # here, after the write locks are released, they could hold
            # a later publish's bump that never reaches the log. A CDC
            # publish piggybacks its outbox cursor (``cur``): advancing
            # past the entry is atomic with capturing the counters its
            # publish bumped — a crash can never leave the counters
            # durable but the cursor behind (which would republish and
            # double-bump).
            if self.ecosystem.local_service(message.app) is None:
                return
            fields += (message.counters,)
        elif kind == "shed":
            # The post-state of the app's shed-deficit ledger, an
            # idempotent replace on replay, appended *inside* the
            # ledger's lock (``QueueFlow.with_ledger``): snapshotting the
            # ledger under the lock but appending after releasing it lets
            # a concurrent ledger writer (another shed, or an audit
            # thread's ``reconcile_shed`` trim) slip its own record in
            # between, and last-writer-wins replay restores the stale
            # ledger. Holding the lock makes WAL order equal ledger-
            # mutation order.
            queue, dropped, flow = fields
            flow.with_ledger(dropped.app, lambda ledger: self._append(
                wal.LAYOUTS[kind](queue, dropped, ledger)
            ))
            return
        elif kind == "ack" and self.wal.injector is not None:
            self.wal.injector.fire("before-ack")
        self._append(wal.LAYOUTS[kind](*fields), message)

    # -- the publish gate ----------------------------------------------------

    def open_publish(self) -> None:
        """A publish is *open* from its version-store bump
        (``SynapsePublisher._prepare`` calls this just before it) to the
        end of its publish step. A snapshot waits out every other
        thread's open publish, and none opens while a snapshot waits or
        captures: so a snapshot holds no bump whose ``out`` record is
        not before its pin, and no ``out`` record before its pin whose
        local deliveries its queues do not hold."""
        step = self.step
        with self._gate:
            while self._snapshots and not step.opened:  # else waited for
                self._gate.wait()
            self._open += 1
        step.opened += 1

    def close_publish(self) -> None:
        """Close the calling thread's open publish, if it has one."""
        step = self.step
        if step.opened:
            step.opened -= 1
            with self._gate:
                self._open -= 1
                if self._snapshots:
                    self._gate.notify_all()

    @contextmanager
    def _exclusive(self) -> Iterator[None]:
        """Run a snapshot: alone, and with no other thread's publish
        open. The wait polls, with a yield point between polls: under
        the conformance scheduler the publish it waits for runs only
        when this thread yields."""
        mine = self.step.opened
        with self._gate:
            self._snapshots += 1
        try:
            while self._open > mine:
                with self._gate:  # a close notifies; the timeout polls
                    self._gate.wait(0.01)
                yield_point("durability.snapshot_wait")
            with self._snapshot_lock:
                yield
        finally:
            with self._gate:
                self._snapshots -= 1
                self._gate.notify_all()

    # -- snapshot ------------------------------------------------------------

    def maybe_snapshot(self) -> Optional[int]:
        """Take a snapshot once ``snapshot_every`` WAL appends have been
        made since the last one. Called at the clean end of every
        outermost step (the publish step, a drain round, a pool batch):
        capturing a queue takes its lock, so a snapshot may only start
        where none is held."""
        if not self._snapshot_due():
            return None
        with self._exclusive():
            return self._snapshot(None) if self._snapshot_due() else None

    def _snapshot_due(self) -> bool:
        return self.wal.appends.value - self._snapshot_mark >= self.snapshot_every

    def snapshot(self, pin: Optional[Tuple[int, int]] = None) -> int:
        """Checkpoint the process's durable state and compact the log.

        It waits out every other thread's open publish (a bump whose
        ``out`` record or deliveries are not in yet), and no publish
        opens until it is done. The WAL is synced and the pin taken
        *before* state capture, so records racing the capture appear
        both in the snapshot and the tail. The counters make that
        overlap idempotent: a service's section captures its counters
        before its rows, so an ``apply`` whose bump the snapshot holds
        has its rows there too, and replay skips it as applied
        (docs/durability.md). ``pin`` overrides the position (tests
        replaying a bounded prefix)."""
        with self._exclusive():
            return self._snapshot(pin)

    def _snapshot(self, pin: Optional[Tuple[int, int]]) -> int:
        self.wal.sync()
        if pin is None:
            pin = self.wal.position()
        snapshot_id, _ = self.snapshots.write(self.capture_state(), pin)
        self.snapshots.compact(snapshot_id)
        self.wal.compact_below(pin[0])
        self._snapshot_mark = self.wal.appends.value
        self._snap_count.increment()
        return snapshot_id

    def capture_state(self) -> Dict[str, Any]:
        """The process's durable state, one section per owner: what a
        snapshot holds, and what restore-equivalence compares."""
        eco = self.ecosystem
        state: Dict[str, Any] = {
            "generations": eco.generations.snapshot(),
            "services": {
                service.name: service.durable_state()
                for service in eco.local_services()
            },
            "queues": {
                queue.name: queue.durable_state()
                for queue in eco.broker.local_queues()
            },
        }
        cursors = eco.cdc.cursors()
        if cursors:
            state["cdc"] = cursors
        return state

    # -- restore -------------------------------------------------------------

    def restore(self, replay_limit: Optional[int] = None) -> RestoreReport:
        """Rebuild the process's durable state: latest valid snapshot,
        then the WAL tail. ``replay_limit`` bounds replay to the first
        N tail records (crash-point tests replaying every prefix)."""
        eco = self.ecosystem
        report = RestoreReport()
        self._restoring = True
        self.cdc_cursors = {}
        # Every uid the restore brings back: new publishes must not
        # reuse one.
        uids: List[str] = []
        try:
            snapshot = self.snapshots.load_latest()
            start = None
            if snapshot is not None:
                manifest = snapshot["manifest"]
                report.snapshot_id = manifest["id"]
                start = (manifest["wal"]["segment"], manifest["wal"]["offset"])
                self._restore_snapshot(snapshot)
            replay_error: Optional[WALCorrupt] = None
            try:
                for position, rec in self.wal.replay(start=start):
                    if replay_limit is not None and report.replayed >= replay_limit:
                        report.position = position
                        break
                    report.replayed += 1
                    if "m" in rec:
                        uids.append(rec["m"]["uid"])
                    self._replay_record(rec, report)
                    report.position = (position[0], position[1] + 1)
            except WALCorrupt as exc:
                replay_error = exc
            self._replayed.increment(report.replayed)
            for queue in eco.broker.local_queues():
                requeued = queue.end_restore()
                report.requeued += len(requeued)
                uids.extend(message.uid for message in requeued)
            self._requeued.increment(report.requeued)
            self._restored_applies.increment(report.applied)
            Message.advance_sequence(uids)
            # Derived read models are not snapshotted: WAL replay lands
            # raw engine writes without the subscriber's view hook, so
            # any service with declared views rebuilds them from the
            # restored base rows (deterministic, and self-auditing
            # against INV_VIEW).
            for service in eco.local_services():
                if service.views is not None:
                    service.views.rebuild()
            # CDC pollers resume from the restored cursors, and each
            # outbox re-derives its next sequence from the restored
            # rows so new raw writes cannot collide with replayed ones.
            eco.cdc.adopt_cursors(self.cdc_cursors)
            eco.cdc.resync()
            if replay_error is not None:
                report.unrecoverable = True
                report.error = str(replay_error)
                report.stale_services = sorted(
                    service.name for service in eco.local_services()
                )
                self._unrecoverable.increment()
                eco.recorder.anomaly(
                    "durability.unrecoverable", error=str(replay_error)
                )
        finally:
            self._restoring = False
        return report

    def _restore_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Hand each section of a snapshot to its owner."""
        eco = self.ecosystem
        eco.generations.restore_all(snapshot.get("generations", {}))
        for name, state in snapshot.get("services", {}).items():
            service = eco.local_service(name)
            if service is not None:
                service.restore_state(state)
        for name, state in snapshot.get("queues", {}).items():
            eco.broker.queue_for(name).restore_state(state)
        for name, cursor in snapshot.get("cdc", {}).items():
            self._advance_cdc_cursor(name, cursor)

    def _advance_cdc_cursor(self, service_name: str, cursor: int) -> None:
        """Set-to-max: a replayed piggyback may trail a later checkpoint
        (or the snapshot's captured cursor)."""
        self.cdc_cursors[service_name] = max(
            self.cdc_cursors.get(service_name, 0), int(cursor)
        )

    # -- tail replay: each record to its owner -------------------------------
    #
    # A record about a service this process does not host is skipped.

    def _replay_record(self, rec: Dict[str, Any], report: RestoreReport) -> None:
        """Hand one tail record to its owner, by type."""
        owner = self._OWNERS.get(rec.get("t"))
        if owner is not None:
            owner(self, rec, report)

    def _to_queue(self, rec: Dict[str, Any], report: RestoreReport) -> None:
        service = self.ecosystem.local_service(rec["q"])
        applied = service.subscriber.applied if service is not None else _never
        self.ecosystem.broker.queue_for(rec["q"]).replay(rec, applied)

    def _to_subscriber(self, rec: Dict[str, Any], report: RestoreReport) -> None:
        service = self.ecosystem.local_service(rec["svc"])
        if service is None:
            return
        if rec["t"] == "gen":
            service.subscriber.enter_generation(rec["app"], rec["g"])
        elif service.subscriber.replay_apply(Message.from_wire(rec["m"])):
            report.applied += 1

    def _to_publisher(self, rec: Dict[str, Any], report: RestoreReport) -> None:
        for name in rec.get("q", ()):  # each local delivery's ``pub``
            self._to_queue({"t": "pub", "q": name, "m": rec["m"]}, report)
        service = self.ecosystem.local_service(rec["app"])
        if service is None:
            return
        if rec["t"] == "pubgen":
            service.replay_pubgen(rec["g"])
            return
        service.publisher.replay_out(Message.from_wire(rec["m"]), rec.get("vs", {}))
        if rec.get("cur") is not None:
            self._advance_cdc_cursor(rec["app"], rec["cur"])

    def _to_outbox(self, rec: Dict[str, Any], report: RestoreReport) -> None:
        service = self.ecosystem.local_service(rec["svc"])
        if service is not None and service.outbox is not None:
            service.outbox.replay(rec["e"])

    def _to_cursor(self, rec: Dict[str, Any], report: RestoreReport) -> None:
        self._advance_cdc_cursor(rec["svc"], rec["cur"])

    def close(self) -> None:
        self.wal.close()


#: Record type -> the method that hands it to its owner: ``_to_<owner>``
#: of the transition that writes it.
DurabilityManager._OWNERS = {
    transition.record: getattr(DurabilityManager, "_to_" + transition.owner)
    for transition in TRANSITIONS
}
