"""Durable per-subscriber queue with ack/redeliver semantics."""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.broker.message import Message
from repro.durability.manager import DURABILITY_OFF
from repro.errors import BrokerError, QueueDecommissioned
from repro.runtime.flow.admission import FLOW_OFF
from repro.runtime.interleave import (
    QUEUE_ACKED, QUEUE_COALESCED, QUEUE_DECOMMISSIONED, QUEUE_DEFERRED,
    QUEUE_PUBLISHED, QUEUE_RECOMMISSIONED, QUEUE_SHED, emit, yield_point,
)
from repro.runtime.tracing import MARK_ACKED, MARK_ENQUEUED, STAGE_DWELL, trace_now


@dataclass
class _Restored:
    """One queue as a restore rebuilds it — from its snapshot section,
    then its tail records — until it is re-injected."""

    #: uid -> wire payload, in queue order.
    pending: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    published: int = 0
    acked: int = 0
    decommissioned: bool = False
    shed: Dict[str, Dict[str, int]] = field(default_factory=dict)


class SubscriberQueue:
    """FIFO queue of write messages for one subscriber application.

    ``pop`` hands out a message and keeps it *unacked*; ``ack`` removes
    it; ``nack`` (or :meth:`requeue_unacked`) pushes it back to the front
    for redelivery. When the backlog exceeds ``max_size`` the queue is
    killed and the subscriber must re-bootstrap (§4.4).

    Each durable transition is one ``emit`` under ``self._lock`` (the
    log's record and the conformance event); the ``yield_point`` calls
    mark the interleaving boundaries driven by the deterministic
    conformance harness, are no-ops in production and always sit
    *outside* ``self._lock`` (``repro.runtime.interleave``).
    """

    def __init__(self, name: str, max_size: Optional[int] = None) -> None:
        self.name = name
        self.max_size = max_size
        self._items: deque = deque()
        self._unacked: Dict[int, Message] = {}
        #: The highest seq a decommission cleared from the in-flight
        #: table (seqs only grow): the acks of those deliveries' workers
        #: stay tolerated after a heal recommissions.
        self._cleared_upto = 0
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        #: Poppers blocked on ``_available``, under ``self._lock``: a
        #: publish with nobody waiting skips the notify. (A popper that
        #: raises out of its wait leaves it high: a spare notify, no more.)
        self._waiting = 0
        self.decommissioned = False
        self.total_published = 0
        self.total_acked = 0
        #: Per-queue flow state (admission credits + coalescing index):
        #: ``FLOW_OFF`` until the broker wires in the flow controller's.
        #: Its hooks are called under ``self._lock`` and never suspend.
        self.flow = FLOW_OFF
        #: The log the broker wires in (``DURABILITY_OFF``, a null sink,
        #: until durability is enabled). Transitions are emitted under
        #: ``self._lock`` so WAL order equals queue-mutation order.
        self.durability = DURABILITY_OFF
        #: What a running restore has rebuilt of this queue so far.
        self._restored: Optional[_Restored] = None

    @property
    def step(self):
        """``with queue.step:`` around the applies of what was popped
        and the acks that settle them: the log's step (with a WAL their
        records reach the kernel in one write when it ends)."""
        return self.durability.step

    # -- broker side ---------------------------------------------------------

    def publish(self, message: Message) -> None:
        yield_point("queue.publish", queue=self.name, message=message)
        dropped = killed = False
        with self._lock:
            flow, log = self.flow, self.durability
            if self.decommissioned:
                dropped = True
            elif (
                survivor := flow.coalesce(self._items, self._unacked, message)
            ) is not None:
                emit(log, QUEUE_COALESCED, self.name, message, survivor)
            elif flow.admit(message, len(self._items) + len(self._unacked)) == "shed":
                emit(log, QUEUE_SHED, self.name, message, flow)
            else:
                # Dwell is measured for every message (the lag monitor
                # needs it), not just traced ones.
                message.enqueued_at = trace_now()
                if message.trace is not None:
                    message.trace.mark(MARK_ENQUEUED)
                self._items.append(message)
                flow.register(message)
                self.total_published += 1
                killed = (
                    self.max_size is not None and len(self._items) > self.max_size
                )
                if killed:
                    self._items.clear()
                    self._cleared_upto = max(self._unacked, default=self._cleared_upto)
                    self._unacked.clear()
                    self.decommissioned = True
                    flow.reset()
                    # Everyone must notice the decommission, not just
                    # one worker — the single wake-one case is below.
                    self._available.notify_all()
                elif self._waiting:
                    self._available.notify()
                emit(log, QUEUE_PUBLISHED, self.name, message)
                if killed:
                    emit(log, QUEUE_DECOMMISSIONED, self.name)
        if dropped:
            yield_point("queue.drop.decommissioned", queue=self.name, message=message)
            return
        yield_point()
        if killed:
            yield_point()

    def recommission(self) -> None:
        """Bring a killed queue back (start of a partial bootstrap)."""
        with self._lock:
            self.decommissioned = False
            self._items.clear()
            self._unacked.clear()
            self.flow.reset()
            emit(self.durability, QUEUE_RECOMMISSIONED, self.name)
            self._available.notify_all()

    # -- subscriber side -----------------------------------------------------

    def pop(self, timeout: Optional[float] = 0.0) -> Optional[Message]:
        """Take the next message (it stays unacked until :meth:`ack`);
        the one-message form of :meth:`pop_many`.

        ``timeout=0`` polls; ``timeout=None`` blocks indefinitely.
        """
        popped = self.pop_many(1, timeout)
        return popped[0] if popped else None

    def _await_items_locked(self, timeout: Optional[float]) -> None:
        """Wait until a message is queued or ``timeout`` passes; raises
        on a decommissioned queue. Caller holds ``self._lock``.

        The wait is a predicate re-check loop against a shared deadline:
        a spurious wakeup, or a notify consumed by a faster worker, puts
        the caller back to sleep for the *remaining* time instead of
        returning early (a dropped delivery from the caller's point of
        view).
        """
        if self.decommissioned:
            raise QueueDecommissioned(self.name)
        if not self._items and timeout != 0.0:
            self._waiting += 1
            if timeout is None:
                while not self._items and not self.decommissioned:
                    self._available.wait()
            else:
                deadline = time.monotonic() + timeout
                while not self._items and not self.decommissioned:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._available.wait(remaining)
            self._waiting -= 1
            if self.decommissioned:
                raise QueueDecommissioned(self.name)

    def _take_locked(self) -> Message:
        """Pop the head with full per-delivery bookkeeping. Caller
        holds ``self._lock`` and has checked ``self._items``."""
        message = self._items.popleft()
        message.delivery_count += 1
        self._unacked[message.seq] = message
        self.flow.on_pop(message)
        if message.enqueued_at is not None:
            message.dwell = trace_now() - message.enqueued_at
        if message.trace is not None:
            # Queue dwell: enqueue (or last redelivery) to this pop.
            enqueued = message.trace.marks.get(MARK_ENQUEUED)
            if enqueued is not None:
                message.trace.add(STAGE_DWELL, enqueued, trace_now() - enqueued)
        return message

    def pop_many(
        self, max_n: int, timeout: Optional[float] = 0.0
    ) -> List[Message]:
        """Drain up to ``max_n`` messages in one lock round-trip.

        Blocks like :meth:`pop` for the *first* message; the rest are
        taken only if already queued. Each message gets the same
        per-delivery bookkeeping as ``pop`` (delivery count, unacked
        table, dwell, trace dwell span), and ``queue.popped`` is
        emitted per message, in pop order, after the lock is released.
        """
        if max_n <= 0:
            return []
        yield_point("queue.pop", queue=self.name)
        popped: List[Message] = []
        with self._lock:
            self._await_items_locked(timeout)
            while self._items and len(popped) < max_n:
                popped.append(self._take_locked())
        for message in popped:
            yield_point("queue.popped", queue=self.name, message=message)
        return popped

    def ack(self, message: Message) -> None:
        yield_point("queue.ack", queue=self.name, message=message)
        with self._lock:
            tolerated = message.seq not in self._unacked
            if tolerated:
                if not self.decommissioned and message.seq > self._cleared_upto:
                    raise BrokerError(f"ack of unknown delivery {message.seq}")
                # Decommission cleared the in-flight table while this
                # delivery was mid-message: the ack is a tolerated no-op,
                # on the dead queue and on the one a heal brought back.
            else:
                del self._unacked[message.seq]
                self.total_acked += 1
                emit(self.durability, QUEUE_ACKED, self.name, message)
                if message.trace is not None:
                    message.trace.mark(MARK_ACKED)
                    # The subscriber already handed the finished trace to
                    # the tracer/flight recorder (same object, so the ack
                    # mark above is visible there); releasing it here
                    # stops per-message growth once delivery completes.
                    message.trace = None
        if tolerated:
            yield_point("queue.ack.tolerated", queue=self.name, message=message)
        else:
            yield_point()

    def nack(self, message: Message) -> None:
        """Return an unacked message to the front of the queue."""
        yield_point("queue.nack", queue=self.name, message=message)
        with self._lock:
            tolerated = self.decommissioned or message.seq not in self._unacked
            if not tolerated:
                del self._unacked[message.seq]
                message.enqueued_at = trace_now()  # dwell restarts
                if message.trace is not None:
                    message.trace.mark(MARK_ENQUEUED)
                self._items.appendleft(message)
                # One message back, one worker woken (the herd fix);
                # the predicate re-check loop in pop absorbs races.
                self._available.notify()
        if tolerated:
            yield_point("queue.nack.tolerated", queue=self.name, message=message)
        else:
            yield_point("queue.nacked", queue=self.name, message=message)

    def defer(self, message: Message) -> None:
        """Return an unacked message to the *back* of the queue.

        The worker pools use this instead of :meth:`nack` when a
        delivery stalled purely on a dependency wait: the missing
        predecessor is somewhere behind it in this very queue, so
        redelivering at the front would hand the popper the same
        message back while the predecessor stays buried — with several
        workers and small batches that cycle can starve the chain head
        indefinitely. Rotating to the back guarantees every queued
        message surfaces within one revolution."""
        yield_point("queue.defer", queue=self.name, message=message)
        with self._lock:
            tolerated = self.decommissioned or message.seq not in self._unacked
            if not tolerated:
                del self._unacked[message.seq]
                message.enqueued_at = trace_now()  # dwell restarts
                if message.trace is not None:
                    message.trace.mark(MARK_ENQUEUED)
                self._items.append(message)
                # The rotation is durable state: restore rebuilds the
                # queue from pub records (original publish order), so an
                # unlogged defer would resurrect the chain-head-buried
                # ordering this rotation just fixed.
                emit(self.durability, QUEUE_DEFERRED, self.name, message)
                self._available.notify()
        if tolerated:
            yield_point("queue.defer.tolerated", queue=self.name, message=message)
        else:
            yield_point()

    def requeue_unacked(self) -> int:
        """Crash recovery: everything in flight goes back on the queue."""
        with self._lock:
            pending = sorted(self._unacked.values(), key=lambda m: m.seq)
            for message in reversed(pending):
                self._items.appendleft(message)
            count = len(self._unacked)
            self._unacked.clear()
            if count:
                self._available.notify(count)
        if count:
            yield_point("queue.requeued", queue=self.name, count=count)
        return count

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def unacked_count(self) -> int:
        with self._lock:
            return len(self._unacked)

    # -- durability (docs/durability.md, "Restore") -------------------------------

    def durable_state(self) -> Dict[str, Any]:
        """This queue's section of a snapshot: every message still owed
        to the subscriber as a wire payload dict (in-flight deliveries
        first, in seq order — the :meth:`requeue_unacked` ordering a
        crash produces), the lifetime counters and the shed ledger."""
        with self._lock:
            owed = sorted(self._unacked.values(), key=lambda m: m.seq)
            owed.extend(self._items)
            state = {
                "pending": [message.to_wire() for message in owed],
                "decommissioned": self.decommissioned,
                "published": self.total_published,
                "acked": self.total_acked,
            }
        state["shed"] = self.flow.shed_ledger()
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore, first step: start from this queue's snapshot section
        (:meth:`durable_state`). The tail's records follow
        (:meth:`replay`), then :meth:`end_restore`."""
        self._restored = _Restored(
            pending={payload["uid"]: payload for payload in state.get("pending", [])},
            published=state.get("published", 0),
            acked=state.get("acked", 0),
            decommissioned=bool(state.get("decommissioned", False)),
            shed={app: dict(ledger) for app, ledger in (state.get("shed") or {}).items()},
        )

    def replay(self, rec: Dict[str, Any], applied: Callable[[Message], bool]) -> None:
        """Restore: apply one tail record about this queue (``pub``,
        ``coal``, ``defer``, ``ack``, ``shed``, ``decom``, ``recom``) to
        what the restore has rebuilt so far. ``applied(message)`` is the
        subscriber's counter rule: a replayed ``pub`` of a message it
        has already applied is not owed again."""
        restored = self._restored
        if restored is None:
            restored = self._restored = _Restored()
        pending, kind = restored.pending, rec["t"]
        if kind == "pub":
            uid = rec["m"]["uid"]
            if uid not in pending and not applied(Message.from_wire(rec["m"])):
                pending[uid] = rec["m"]
                restored.published += 1
        elif kind == "coal":
            if rec["uid"] in pending:
                pending[rec["uid"]] = rec["m"]
            # Absorbed messages ride inside the survivor now; one still
            # pending (its own ``pub`` replayed earlier) would be
            # re-injected beside it, carrying increments the survivor
            # already merged.
            for uid in rec.get("absorbed", []):
                if uid != rec["uid"] and pending.pop(uid, None) is not None:
                    restored.published = max(0, restored.published - 1)
        elif kind == "defer":
            # To the back: re-injection follows insertion order.
            if rec["uid"] in pending:
                pending[rec["uid"]] = pending.pop(rec["uid"])
        elif kind == "ack":
            if pending.pop(rec["uid"], None) is not None:
                restored.acked += 1
        elif kind == "shed":
            # Post-state ledgers: last writer wins.
            restored.shed[rec["app"]] = dict(rec["ledger"])
        elif kind in ("decom", "recom"):
            restored.decommissioned = kind == "decom"
            pending.clear()
            restored.shed.clear()

    def end_restore(self) -> List[Message]:
        """Restore, last step: re-inject what the restore rebuilt
        (nothing if it never reached this queue) and return the
        requeued messages. Bypasses :meth:`publish` deliberately:
        admission control must not re-shed or re-coalesce a backlog the
        original run already admitted — restore reproduces state, it
        does not re-decide."""
        restored, self._restored = self._restored, None
        if restored is None:
            return []
        messages = [Message.from_wire(payload) for payload in restored.pending.values()]
        with self._lock:
            self._items.clear()
            self._unacked.clear()
            for message in messages:
                message.enqueued_at = trace_now()
                self._items.append(message)
                self.flow.register(message)
            self.total_published = restored.published
            self.total_acked = restored.acked
            self.decommissioned = restored.decommissioned
            self._available.notify_all()
        self.flow.restore_shed(restored.shed)
        return messages

    def peek_all(self) -> List[Message]:
        with self._lock:
            return list(self._items)

    def peek_unacked(self) -> List[Message]:
        """Deliveries popped but not yet acked/nacked, in seq order.

        The generation gate needs these: a message held by a parallel
        worker is invisible to :meth:`peek_all`, and flushing dependency
        counters while it is mid-apply wipes state the apply is about to
        bump."""
        with self._lock:
            return sorted(self._unacked.values(), key=lambda m: m.seq)
