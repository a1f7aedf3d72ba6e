"""The durability manager: WAL logging hooks, snapshots, and restore.

``Ecosystem.enable_durability`` builds one :class:`DurabilityManager`
per process and attaches it to the broker (which hands it to every
subscriber queue, existing and future) in place of
:data:`DURABILITY_OFF`, the null sink the same hooks log into while
durability is off. The pipeline then logs each
durable state transition as one WAL record, appended *inside* the lock
that orders the transition, so WAL order equals effect order (the
records of the hot path go to the WAL as text ``durability.wal``'s
layouts made of them, the rest as dicts; ``_append`` is the one place
that skips logging while a restore replays):

=========  =============================================================
``out``    publisher routed a message (captures the post-bump publisher
           version-store counters for the message's dependency keys)
``pub``    a queue admitted a message (payload, trace dropped)
``coal``   flow control merged a publish into a queued survivor
           (post-merge survivor payload — idempotent replace)
``shed``   flow control shed a weak publish (post-state deficit ledger)
``defer``  a worker rotated a dependency-stalled delivery to the back
``ack``    a delivery completed
``decom``  the queue hit its §4.4 kill cliff / ``recom`` recommission
``apply``  a subscriber finished applying a message
``gen``    subscriber flushed counters for a publisher generation bump
``pubgen`` publisher generation bump (version-store death, §4.4)
``obx``    a raw write committed a transactional-outbox entry (engines
           are in-memory: without this a crash before the CDC poll
           would lose the raw write entirely)
``cdc``    CDC poller cursor checkpoint (end of each poll batch); the
           ``out`` record of every CDC publish also piggybacks the
           cursor as ``cur``, making cursor-advance atomic with the
           publisher-counter capture
=========  =============================================================

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
what it had applied or acked but not written is redelivered and deduped
after restart. ``interval`` and ``always`` ignore steps.

:meth:`restore` is ARIES-lite: load the latest valid snapshot, replay
the WAL tail past its pin with at-least-once dedup (the snapshot's
applied-uid window plus in-replay queue membership), re-inject the
surviving pending messages into the real queues, and advance the
process-wide message sequence past every restored uid so new publishes
cannot collide into the dedup window. An ``apply`` record re-lands its
message through the subscriber's own per-message step
(``SynapseSubscriber.replay_apply``) with a raw persist — the
subscription's field map is read there and nowhere here; no callbacks,
no publisher interception, because every cascade a callback produced in
the original run is already in the log as its own records and re-firing
it would double-publish. What the tail cannot bring back (columns a
callback computed, unpublished columns) is tabled in docs/durability.md.

If the log is unrecoverable (mid-log corruption, missing segment, newer
wire version) restore keeps the snapshot state, reports
``unrecoverable=True`` and the caller re-enters bootstrap/repair — the
pre-durability recovery ladder (docs/recovery.md).
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

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
from repro.runtime.tracing import STAGE_WAL, STAGE_WAL_FLUSH, trace_now


def _uid_seq(uid: str) -> int:
    """The numeric tail of a default ``app:seq`` uid, else 0."""
    _, _, tail = uid.rpartition(":")
    return int(tail) if tail.isdigit() else 0


def _queue_counters() -> Dict[str, int]:
    return {"published": 0, "acked": 0}


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

    def __init__(self, wal: SegmentedWAL) -> None:
        self._wal = wal

    def __enter__(self) -> None:
        self.depth += 1

    def __exit__(self, *exc_info: Any) -> None:
        self.depth -= 1
        trace = self.trace
        if trace is None:
            self._wal.flush()
            return
        self.trace = None
        start = trace_now()
        if self._wal.flush():
            trace.add(STAGE_WAL_FLUSH, start, trace_now() - start)


class DurabilityOff:
    """Durability off: ``eco.durability`` until ``enable_durability``,
    and every queue's log under it. Each hook the pipeline logs through
    does nothing, a step is a ``nullcontext`` and a snapshot saves
    nothing. Not a :class:`DurabilityManager`: it owns no
    ``durability.*`` instrument."""

    step = nullcontext()

    def _nothing(self, *args: Any) -> None:
        pass

    log_out = log_pub = log_coal = log_shed = log_defer = log_ack = _nothing
    log_decom = log_recom = log_apply = log_gen = log_pubgen = _nothing
    log_outbox = log_cdc_cursor = snapshot = close = _nothing


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
        self._appends_since_snapshot = 0
        self.step = _Step(self.wal)
        #: True while :meth:`restore` runs: every log hook is a no-op so
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

    # -- logging hooks (called by queue/broker/subscriber, see module doc) --

    def _append(
        self, rec: Union[Dict[str, Any], str], message: Optional[Message] = None
    ) -> None:
        """Append one record — a dict, or the text one of ``wal``'s
        layouts made of it — unless :meth:`restore` is running.
        ``message`` is the message the record is about: its append is
        timed into the message's trace when it has one, and that trace
        is where the write of the step it belongs to will show."""
        if self._restoring:
            return
        step = self.step
        held = step.depth > 0
        trace = message.trace if message is not None else None
        if trace is None:
            self.wal.append(rec, hold=held)
        else:
            start = trace_now()
            self.wal.append(rec, hold=held)
            trace.add(STAGE_WAL, start, trace_now() - start)
            if held:
                step.trace = trace
        self._appends_since_snapshot += 1

    def log_out(self, message: Message) -> None:
        """Publisher routed a message: record the payload plus the
        post-bump publisher version-store counters of its dependency
        keys, so replay restores both the outbound intent and the
        counter state new publishes will continue from."""
        if self._restoring:
            return
        service = self.ecosystem.local_service(message.app)
        if service is None:
            return
        pvs = service.publisher_version_store
        counters: Dict[str, List[int]] = {}
        for hashed in message.dependencies:
            key = pvs._key(hashed)
            counters[hashed] = [
                pvs.kv.hget(key, "ops") or 0,
                pvs.kv.hget(key, "version") or 0,
            ]
        # A CDC publish piggybacks its outbox cursor (``cur``): advancing
        # past the entry is atomic with capturing the counters its
        # publish bumped — a crash can never leave the counters durable
        # but the cursor behind (which would republish and double-bump).
        self._append(
            wal.out_record(message.app, message.body(), counters, message.cdc),
            message,
        )
        self.maybe_snapshot()

    def log_pub(self, queue_name: str, message: Message) -> None:
        self._append(wal.pub_record(queue_name, message.body()), message)

    def log_coal(self, queue_name: str, survivor: Message) -> None:
        # ``absorbed`` lists every uid the survivor has merged so far.
        # Replay must drop those from pending: an absorbed message whose
        # ``pub`` record is also in the log would otherwise be
        # re-injected on every restore, carrying dependency increments
        # the survivor already merged (dep-wait wedges or double-applied
        # counter bumps under causal/global delivery).
        self._append(
            wal.coal_record(
                queue_name, survivor.uid, survivor.coalesced_uids,
                survivor.body(),
            ),
            survivor,
        )

    def log_shed(self, queue_name: str, message: Message, flow: Any) -> None:
        """Post-state of the shed-deficit ledger for the message's app —
        an idempotent replace on replay.

        The append happens *inside* the ledger's lock
        (``QueueFlow.with_ledger``): snapshotting the ledger under the
        lock but appending after releasing it lets a concurrent ledger
        writer (another shed, or an audit thread's ``reconcile_shed``
        trim) slip its own record in between, so two records land in
        inverted order and last-writer-wins replay restores the stale
        ledger. Holding the lock across the append makes WAL order equal
        ledger-mutation order."""
        if self._restoring:
            return
        flow.with_ledger(message.app, lambda ledger: self._append(
            {"t": "shed", "q": queue_name, "app": message.app, "ledger": ledger}
        ))

    def log_defer(self, queue_name: str, message: Message) -> None:
        """A worker rotated a dependency-stalled delivery to the back of
        the queue. Without this record restore rebuilds the queue in
        original publish order, resurrecting the exact chain-head-buried
        ordering the rotation had already fixed — the restored workers
        would have to rediscover every defer before draining."""
        self._append(
            {"t": "defer", "q": queue_name, "uid": message.uid}, message
        )

    def log_ack(self, queue_name: str, message: Message) -> None:
        if self._restoring:
            return
        if self.wal.injector is not None:
            self.wal.injector.fire("before-ack")
        self._append(wal.ack_record(queue_name, message.uid), message)

    def log_decom(self, queue_name: str) -> None:
        self._append({"t": "decom", "q": queue_name})

    def log_recom(self, queue_name: str) -> None:
        self._append({"t": "recom", "q": queue_name})

    def log_apply(self, service_name: str, message: Message) -> None:
        if self._restoring:
            return  # a replayed apply: do not encode its body for nothing
        self._append(
            wal.apply_record(service_name, message.uid, message.body()),
            message,
        )

    def log_gen(self, service_name: str, app: str, generation: int) -> None:
        self._append(
            {"t": "gen", "svc": service_name, "app": app, "g": generation}
        )

    def log_pubgen(self, app: str, generation: int) -> None:
        self._append({"t": "pubgen", "app": app, "g": generation})

    def log_outbox(self, service_name: str, entry: Dict[str, Any]) -> None:
        """A raw write committed its data row + outbox entry. The entry
        carries everything replay needs to restore both."""
        self._append({"t": "obx", "svc": service_name, "e": dict(entry)})

    def log_cdc_cursor(self, service_name: str, cursor: int) -> None:
        """CDC poller batch checkpoint — keeps an idle tail's position
        durable across compaction even when no piggybacked ``out``
        record follows."""
        self._append({"t": "cdc", "svc": service_name, "cur": cursor})

    # -- snapshot ------------------------------------------------------------

    def maybe_snapshot(self) -> Optional[int]:
        """Take a snapshot when the cadence is due. Only called from
        lock-free sites (the publisher path): capturing queue state
        takes each queue's lock, so a snapshot from inside one would
        deadlock."""
        if self.snapshot_every is None:
            return None
        if self._appends_since_snapshot < self.snapshot_every:
            return None
        return self.snapshot()

    def snapshot(self, pin: Optional[Tuple[int, int]] = None) -> int:
        """Checkpoint the process's durable state and compact the log.

        The WAL is synced and the pin taken *before* state capture, so
        records racing the capture appear both in the snapshot and the
        tail — replay dedup makes the overlap idempotent. ``pin``
        overrides the position (tests replaying a bounded prefix)."""
        self.wal.sync()
        if pin is None:
            pin = self.wal.position()
        state = self._capture_state()
        snapshot_id, _ = self.snapshots.write(state, pin)
        self.snapshots.compact(snapshot_id)
        self.wal.compact_below(pin[0])
        self._appends_since_snapshot = 0
        self._snap_count.increment()
        return snapshot_id

    def _capture_state(self) -> Dict[str, Any]:
        eco = self.ecosystem
        state: Dict[str, Any] = {
            "generations": eco.generations.snapshot(),
            "services": {},
            "queues": {},
        }
        for service in eco.local_services():
            sub = service.subscriber
            pvs_state: Dict[str, List[int]] = {}
            for key, fields in service.publisher_version_store.kv.entries(
                "v:"
            ).items():
                pvs_state[key[len("v:"):]] = [
                    fields.get("ops", 0), fields.get("version", 0)
                ]
            models: Dict[str, List[Dict[str, Any]]] = {}
            for model_name, model_cls in sorted(service.registry.items()):
                mapper = model_cls.__mapper__
                if mapper is None or mapper.db is None:
                    continue  # ephemerals/observers persist nothing
                models[model_name] = mapper._do_where({}, None, None)
            state["services"][service.name] = {
                "pvs": pvs_state,
                "svs": service.subscriber_version_store.snapshot(),
                "sub_generations": dict(sub.generations),
                "applied_uids": sub.applied_uids(),
                "bootstrapping": sub.bootstrapping,
                "models": models,
            }
        for queue in eco.broker.local_queues():
            durable = queue.durable_state()
            durable["shed"] = queue.flow.shed_ledger()
            state["queues"][queue.name] = durable
        cursors = eco.cdc.cursors()
        if cursors:
            state["cdc"] = cursors
        return state

    # -- restore -------------------------------------------------------------

    def restore(self, replay_limit: Optional[int] = None) -> RestoreReport:
        """Rebuild the process's durable state: latest valid snapshot,
        then the WAL tail. ``replay_limit`` bounds replay to the first
        N tail records (crash-point tests replaying every prefix)."""
        report = RestoreReport()
        self._restoring = True
        self.cdc_cursors = {}
        try:
            snapshot = self.snapshots.load_latest()
            start = None
            #: queue -> uid -> payload dict, in queue order.
            pending: Dict[str, Dict[str, Any]] = {}
            stats: Dict[str, Dict[str, int]] = defaultdict(_queue_counters)
            decommissioned: Dict[str, bool] = {}
            shed: Dict[str, Dict[str, Dict[str, int]]] = {}
            max_seq = 0
            if snapshot is not None:
                manifest = snapshot["manifest"]
                report.snapshot_id = manifest["id"]
                start = (manifest["wal"]["segment"], manifest["wal"]["offset"])
                max_seq = self._restore_snapshot_state(
                    snapshot, pending, stats, decommissioned, shed
                )
            replay_error: Optional[WALCorrupt] = None
            replayed = 0
            try:
                for position, rec in self.wal.replay(start=start):
                    if replay_limit is not None and replayed >= replay_limit:
                        report.position = position
                        break
                    replayed += 1
                    max_seq = max(
                        max_seq,
                        self._replay_record(
                            rec, pending, stats, decommissioned, shed, report
                        ),
                    )
                    report.position = (position[0], position[1] + 1)
            except WALCorrupt as exc:
                replay_error = exc
            report.replayed = replayed
            self._replayed.increment(replayed)
            # Re-inject survivors into the real queues (bypassing
            # publish: flow admission must not re-shed differently than
            # the run being restored did).
            broker = self.ecosystem.broker
            for queue_name, dead in decommissioned.items():
                if dead:  # restored below even with nothing pending
                    pending.setdefault(queue_name, {})
            for queue_name, entries in pending.items():
                queue = broker.queue_for(queue_name)
                messages = [
                    Message.from_wire(payload) for payload in entries.values()
                ]
                max_seq = max(
                    max_seq, max((_uid_seq(m.uid) for m in messages), default=0)
                )
                queue.restore_state(
                    messages,
                    published=stats[queue_name]["published"],
                    acked=stats[queue_name]["acked"],
                    decommissioned=decommissioned.get(queue_name, False),
                )
                if queue_name in shed:
                    queue.flow.restore_shed(shed[queue_name])
                report.requeued += len(messages)
            self._requeued.increment(report.requeued)
            self._restored_applies.increment(report.applied)
            _advance_message_seq(max_seq)
            # Derived read models are not snapshotted: WAL replay lands
            # raw engine writes without the subscriber's view hook, so
            # any service with declared views rebuilds them from the
            # restored base rows (deterministic, and self-auditing
            # against INV_VIEW).
            for service in self.ecosystem.local_services():
                views = getattr(service, "views", None)
                if views is not None:
                    views.rebuild()
            # CDC pollers resume from the restored cursors, and each
            # outbox re-derives its next sequence from the restored
            # rows so new raw writes cannot collide with replayed ones.
            self.ecosystem.cdc.adopt_cursors(self.cdc_cursors)
            self.ecosystem.cdc.resync()
            if replay_error is not None:
                report.unrecoverable = True
                report.error = str(replay_error)
                report.stale_services = sorted(
                    service.name for service in self.ecosystem.local_services()
                )
                self._unrecoverable.increment()
                self.ecosystem.recorder.anomaly(
                    "durability.unrecoverable", error=str(replay_error)
                )
        finally:
            self._restoring = False
        return report

    def _restore_snapshot_state(
        self,
        snapshot: Dict[str, Any],
        pending: Dict[str, Dict[str, Any]],
        stats: Dict[str, Dict[str, int]],
        decommissioned: Dict[str, bool],
        shed: Dict[str, Dict[str, Dict[str, int]]],
    ) -> int:
        eco = self.ecosystem
        max_seq = 0
        eco.generations.restore_all(snapshot.get("generations", {}))
        for name, svc_state in snapshot.get("services", {}).items():
            service = eco.local_service(name)
            if service is None:
                continue
            pvs = service.publisher_version_store
            for hashed, (ops, version) in svc_state.get("pvs", {}).items():
                _pvs_fast_forward(pvs, hashed, ops, version)
            service.subscriber_version_store.bulk_load(
                svc_state.get("svs", {})
            )
            sub = service.subscriber
            for app, generation in svc_state.get(
                "sub_generations", {}
            ).items():
                if generation > sub.generations.get(app, 1):
                    sub.generations[app] = generation
            applied = svc_state.get("applied_uids", [])
            sub.restore_applied(applied)
            max_seq = max(max_seq, max(map(_uid_seq, applied), default=0))
            sub.bootstrapping = bool(svc_state.get("bootstrapping", False))
            self._restore_rows(service, svc_state.get("models", {}))
        for queue_name, queue_state in snapshot.get("queues", {}).items():
            entries = pending.setdefault(queue_name, {})
            for payload in queue_state.get("pending", []):
                entries[payload["uid"]] = payload
            stats[queue_name] = {
                "published": queue_state.get("published", 0),
                "acked": queue_state.get("acked", 0),
            }
            decommissioned[queue_name] = bool(
                queue_state.get("decommissioned", False)
            )
            if queue_state.get("shed"):
                shed[queue_name] = {
                    app: dict(ledger)
                    for app, ledger in queue_state["shed"].items()
                }
        for svc_name, cursor in snapshot.get("cdc", {}).items():
            self._advance_cdc_cursor(svc_name, cursor)
        return max_seq

    def _restore_rows(
        self, service: Any, models: Dict[str, List[Dict[str, Any]]]
    ) -> None:
        """Make each model's engine rows exactly match the snapshot:
        raw mapper writes — no callbacks, no interception, no
        read-dependency tracking (mirroring the digest builder's raw
        reads)."""
        for model_name, rows in models.items():
            model_cls = service.registry.get(model_name)
            if model_cls is None:
                continue
            mapper = model_cls.__mapper__
            if mapper is None or mapper.db is None:
                continue
            want = {row["id"]: row for row in rows}
            for local_row in mapper._do_where({}, None, None):
                if local_row["id"] not in want:
                    mapper._do_delete(local_row["id"])
            for row_id, row in want.items():
                _raw_upsert(mapper, model_cls, row_id, row)

    # -- tail replay ---------------------------------------------------------

    def _replay_record(
        self,
        rec: Dict[str, Any],
        pending: Dict[str, Dict[str, Any]],
        stats: Dict[str, Dict[str, int]],
        decommissioned: Dict[str, bool],
        shed: Dict[str, Dict[str, Dict[str, int]]],
        report: RestoreReport,
    ) -> int:
        eco = self.ecosystem
        kind = rec.get("t")
        max_seq = 0
        if kind == "pub":
            payload = rec["m"]
            uid = payload["uid"]
            max_seq = _uid_seq(uid)
            queue_name = rec["q"]
            entries = pending.setdefault(queue_name, {})
            if uid not in entries and not self._uid_applied(queue_name, uid):
                entries[uid] = payload
                stats[queue_name]["published"] += 1
        elif kind == "coal":
            entries = pending.get(rec["q"], {})
            if rec["uid"] in entries:
                entries[rec["uid"]] = rec["m"]
            # Absorbed messages ride inside the survivor now; any of
            # them still pending (its own ``pub`` record replayed
            # earlier) would be re-injected as a duplicate carrying
            # increments the survivor already merged.
            for absorbed_uid in rec.get("absorbed", []):
                if absorbed_uid == rec["uid"]:
                    continue
                if entries.pop(absorbed_uid, None) is not None:
                    counters = stats[rec["q"]]
                    counters["published"] = max(0, counters["published"] - 1)
        elif kind == "defer":
            entries = pending.get(rec["q"], {})
            payload = entries.pop(rec["uid"], None)
            if payload is not None:
                # Rotate to the back: pending dicts are insertion-
                # ordered, and re-injection follows that order.
                entries[rec["uid"]] = payload
        elif kind == "shed":
            shed.setdefault(rec["q"], {})[rec["app"]] = dict(rec["ledger"])
        elif kind == "ack":
            entries = pending.get(rec["q"], {})
            if entries.pop(rec["uid"], None) is not None:
                stats[rec["q"]]["acked"] += 1
        elif kind == "decom":
            decommissioned[rec["q"]] = True
            pending.pop(rec["q"], None)
            shed.pop(rec["q"], None)
        elif kind == "recom":
            decommissioned[rec["q"]] = False
            pending.pop(rec["q"], None)
            shed.pop(rec["q"], None)
        elif kind == "apply":
            message = Message.from_wire(rec["m"])
            max_seq = _uid_seq(message.uid)
            service = eco.local_service(rec["svc"])
            if service is not None and not service.subscriber.has_applied(
                message.uid
            ):
                service.subscriber.replay_apply(message)
                report.applied += 1
        elif kind == "gen":
            service = eco.local_service(rec["svc"])
            if service is not None:
                sub = service.subscriber
                if rec["g"] > sub.generations.get(rec["app"], 1):
                    sub.enter_generation(rec["app"], rec["g"])
        elif kind == "pubgen":
            service = eco.local_service(rec["app"])
            if service is not None and rec["g"] > eco.generations.current(
                rec["app"]
            ):
                service.publisher_version_store.kv.flushall()
            eco.generations.restore_all({rec["app"]: rec["g"]})
        elif kind == "out":
            service = eco.local_service(rec["app"])
            if service is not None:
                message = Message.from_wire(rec["m"])
                max_seq = _uid_seq(message.uid)
                pvs = service.publisher_version_store
                for hashed, (ops, version) in rec.get("vs", {}).items():
                    _pvs_fast_forward(pvs, hashed, ops, version)
                if message.cdc is None:
                    # CDC messages restore publisher rows from their obx
                    # records, which sit at *commit* position in the WAL.
                    # The out record is appended at poll time, so its row
                    # attributes can be stale by then (a later raw update
                    # committed between the write and the poll) — replaying
                    # them here would clobber the newer obx-replayed state.
                    self._replay_publisher_rows(service, message)
                if rec.get("cur") is not None:
                    self._advance_cdc_cursor(rec["app"], rec["cur"])
        elif kind == "obx":
            service = eco.local_service(rec["svc"])
            if service is not None:
                self._replay_outbox(service, rec["e"])
        elif kind == "cdc":
            self._advance_cdc_cursor(rec["svc"], rec["cur"])
        return max_seq

    def _advance_cdc_cursor(self, service_name: str, cursor: int) -> None:
        """Set-to-max: a replayed piggyback may trail a later checkpoint
        (or the snapshot's captured cursor)."""
        self.cdc_cursors[service_name] = max(
            self.cdc_cursors.get(service_name, 0), int(cursor)
        )

    def _replay_outbox(self, service: Any, entry: Dict[str, Any]) -> None:
        """Replay one ``obx`` record: restore the raw-written data row
        and the outbox row itself (dedup by ``id == seq`` — snapshots
        may already carry both)."""
        from repro.cdc.outbox import entry_row

        model_cls = service.registry.get(entry.get("model", ""))
        if model_cls is not None:
            mapper = model_cls.__mapper__
            if mapper is not None and mapper.db is not None:
                if entry["kind"] == "delete":
                    if mapper._do_find(entry["row_id"]) is not None:
                        mapper._do_delete(entry["row_id"])
                else:
                    row = entry_row(entry)
                    _raw_upsert(mapper, model_cls, entry["row_id"], row)
        if service.outbox is not None:
            service.outbox.restore_entry(entry)

    def _uid_applied(self, queue_name: str, uid: str) -> bool:
        """Was this uid already applied by the queue's subscriber? The
        at-least-once dedup for replayed ``pub`` records."""
        service = self.ecosystem.local_service(queue_name)
        if service is None:
            return False
        return service.subscriber.has_applied(uid)

    def _replay_publisher_rows(self, service: Any, message: Message) -> None:
        """Re-apply an ``out`` record's operations to the publisher's
        own rows: published *persisted* attributes only — snapshots
        carry the full rows, the tail can only restore what rode the
        wire, and a published virtual attribute is computed, not
        stored."""
        for operation in message.operations:
            model_cls = None
            for type_name in operation["types"]:
                model_cls = service.registry.get(type_name)
                if model_cls is not None:
                    break
            if model_cls is None:
                continue
            mapper = model_cls.__mapper__
            if mapper is None or mapper.db is None:
                continue
            if operation["operation"] == "delete":
                if mapper._do_find(operation["id"]) is not None:
                    mapper._do_delete(operation["id"])
            else:
                row = {
                    name: value
                    for name, value in operation["attributes"].items()
                    if name in model_cls._fields
                }
                _raw_upsert(mapper, model_cls, operation["id"], row)

    def close(self) -> None:
        self.wal.close()


def _pvs_fast_forward(pvs: Any, hashed: str, ops: int, version: int) -> None:
    """Set-to-max restore of one publisher counter pair (replays may
    revisit keys the snapshot already covered)."""
    key = pvs._key(hashed)

    def script(store, key=key, ops=ops, version=version):
        store.hset(key, "ops", max(store.hget(key, "ops") or 0, ops))
        store.hset(
            key, "version", max(store.hget(key, "version") or 0, version)
        )

    pvs.kv.eval_on(key, script)


def _raw_upsert(
    mapper: Any, model_cls: type, row_id: Any, row: Dict[str, Any]
) -> None:
    """Insert-or-overwrite one row at the storage layer. Inserts start
    from field defaults so a partially-published row still carries every
    column the live apply path would have initialised."""
    attrs = {k: v for k, v in row.items() if k != "id"}
    if mapper._do_find(row_id) is None:
        full = {
            name: field.default_value()
            for name, field in model_cls._fields.items()
        }
        full.update(attrs)
        full["id"] = row_id
        mapper._do_insert(full)
    else:
        mapper._do_update(row_id, attrs)


def _advance_message_seq(max_seq: int) -> None:
    """Move the process-wide message sequence past every restored uid:
    a fresh process restarts the counter at 1, and a new publish whose
    ``app:seq`` uid collides with a restored one would be silently
    dedup-skipped by the subscriber."""
    if max_seq <= 0:
        return
    import repro.broker.message as message_mod

    with message_mod._seq_lock:
        current = next(message_mod._seq)
        message_mod._seq = itertools.count(max(current, max_seq + 1))
