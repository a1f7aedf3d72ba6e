"""Credit-based admission control and the per-queue flow state.

The §4.4 overload response is binary: a queue past ``max_size`` is
killed and the subscriber re-bootstraps. ``QueueFlow`` adds a graduated
zone in front of that cliff:

- Credits are granted up to the **high watermark** and consumed one per
  admitted publish; they refill whenever the queue drains below the
  **low watermark** (hysteresis, so the boundary does not flap).
- With credits exhausted the queue is *throttled*: publishes in weak
  mode are **shed** (safe for the data — weak subscribers tolerate
  fresh-or-discard gaps) and stronger modes are always admitted but
  counted; the publisher never stalls. Targeted repair sends no
  message, so nothing it does can be shed.
- The publisher bumped its version store before the shed, so every
  shed message leaves a subscriber-side counter deficit until a later
  same-object write fast-forwards past it or anti-entropy repairs it.
  ``QueueFlow`` keeps a per-publisher ledger of those deliberate
  deficits; the lag audits reconcile against it (see
  :meth:`QueueFlow.reconcile_shed`) so intentional shedding is not
  reported as the §6.5 loss signature.
- The kill cliff itself is untouched: if pressure still reaches
  ``max_size`` the queue decommissions exactly as before, as the last
  resort.

All mutating entry points are called by ``SubscriberQueue`` under its
own lock, so ``QueueFlow`` needs no locking of its own; it must never
call a suspending yield point (the queue emits those after releasing
the lock, based on the verdicts returned here).

Flow control off is :data:`FLOW_OFF`, not an absent controller: every
queue's flow state is that one object, which admits everything,
coalesces nothing and pops one message at a time.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro.broker.message import Message
from repro.core.delivery import WEAK
from repro.runtime.flow.coalesce import (
    coalesce_key,
    merge_into,
    raised_waits,
    union_conflicts,
)
from repro.runtime.flow.config import FlowConfig
from repro.runtime.monitor.recorder import FlightRecorder

#: Credits refill to ``HIGH_WATERMARK x capacity`` whenever the queue
#: drains below ``LOW_WATERMARK x capacity``.
HIGH_WATERMARK = 0.75
LOW_WATERMARK = 0.5
#: How far back from the tail of the queue the causal/global safety
#: scan will look for the coalesce candidate before giving up.
COALESCE_WINDOW = 32

#: Admission verdicts.
ADMIT = "admit"
SHED = "shed"

#: Backpressure states surfaced in ``LagMonitor.health()``.
STATE_OPEN = "open"
STATE_THROTTLED = "throttled"
STATE_SHEDDING = "shedding"


class QueueFlow:
    """Flow state for one subscriber queue: credits, the coalescing
    index, and the ``flow.<queue>.*`` instruments."""

    def __init__(
        self,
        queue_name: str,
        capacity: Optional[int],
        config: FlowConfig,
        metrics,
        mode_of,
        recorder=None,
    ) -> None:
        self.name = queue_name
        self.config = config
        self.capacity = config.capacity if config.capacity is not None else capacity
        self._mode_of = mode_of
        self._recorder = recorder or FlightRecorder()
        if self.capacity is not None:
            self.high = max(1, int(self.capacity * HIGH_WATERMARK))
            self.low = int(self.capacity * LOW_WATERMARK)
        else:
            self.high = self.low = 0
        self.credits = self.high
        self.state = STATE_OPEN
        #: (app, model, id) -> the queued message absorbing writes to
        #: that object. Entries leave on pop and on queue reset; nacked
        #: redeliveries are never re-indexed (their queue position no
        #: longer reflects publish order).
        self._index: Dict[tuple, Message] = {}
        #: publisher app -> hashed dep -> counter bumps the publisher
        #: recorded for writes this queue deliberately shed. Guarded by
        #: its own lock (unlike the rest of the flow state, it is also
        #: written from the audit threads via :meth:`reconcile_shed`).
        self._shed_deficits: Dict[str, Dict[str, int]] = {}
        self._shed_lock = threading.Lock()
        prefix = f"flow.{queue_name}"
        self.admitted = metrics.counter(f"{prefix}.admitted")
        self.shed = metrics.counter(f"{prefix}.shed")
        self.throttled = metrics.counter(f"{prefix}.throttled")
        self.coalesced = metrics.counter(f"{prefix}.coalesced")
        self.coalesce_rejected = metrics.counter(f"{prefix}.coalesce_rejected")
        self.batch_size = metrics.histogram(f"{prefix}.batch_size")
        self.credits_gauge = metrics.gauge(f"{prefix}.credits")
        self.credits_gauge.set(self.credits)

    # -- admission -----------------------------------------------------------

    def admit(self, message: Message, depth: int) -> str:
        """Admission verdict for one publish. Called under the queue lock."""
        if self.capacity is None:
            self.admitted.increment()
            return ADMIT
        if depth <= self.low and self.credits < self.high:
            self.credits = self.high
            self._set_state(STATE_OPEN)
        if self.credits > 0 and depth < self.high:
            self.credits -= 1
            self.credits_gauge.set(self.credits)
            self.admitted.increment()
            return ADMIT
        # Credits exhausted (or depth already past the high watermark):
        # the graduated zone between the high watermark and the kill
        # cliff. CDC-ingested messages are exempt from shedding: their
        # outbox entry is already durably committed publisher-side, so
        # shedding one would turn an acknowledged raw write into silent
        # divergence (docs/cdc.md).
        mode = self._mode_of(message.app) or WEAK
        if mode == WEAK and message.cdc is None:
            self._set_state(STATE_SHEDDING)
            self.shed.increment()
            self._record_shed(message)
            return SHED
        self._set_state(STATE_THROTTLED)
        self.throttled.increment()
        self.admitted.increment()
        return ADMIT

    def _record_shed(self, message: Message) -> None:
        """Remember the counter bumps a shed message would have carried:
        the publisher already bumped its version store at publish time,
        so until repair (or a later same-object write) fast-forwards
        past them, the subscriber shows a deficit that is deliberate,
        not §6.5 loss."""
        with self._shed_lock:
            ledger = self._shed_deficits.setdefault(message.app, {})
            for dep, amount in message.counter_increments().items():
                ledger[dep] = ledger.get(dep, 0) + amount

    def reconcile_shed(
        self, app: str, deficits: Dict[str, int]
    ) -> Dict[str, int]:
        """Reconcile the shed ledger for ``app`` against the counter
        deficits a lag audit actually observed, and return the portion
        the audit should forgive.

        Per key the ledger is trimmed down to the observed deficit —
        anti-entropy repair, a later write fast-forwarding the object,
        or a re-bootstrap may have healed the key since the shed — so a
        healed entry can never linger and mask a genuinely lost later
        message. What remains is exactly the deliberate, still-unhealed
        shed debt, which the audit subtracts from its loss signal.
        """
        with self._shed_lock:
            ledger = self._shed_deficits.get(app)
            if not ledger:
                return {}
            forgiven: Dict[str, int] = {}
            for dep in list(ledger):
                remaining = min(ledger[dep], deficits.get(dep, 0))
                if remaining <= 0:
                    del ledger[dep]
                else:
                    ledger[dep] = remaining
                    forgiven[dep] = remaining
            if not ledger:
                del self._shed_deficits[app]
            return forgiven

    def shed_ledger(self) -> Dict[str, Dict[str, int]]:
        """Copy of the full shed-deficit ledger (durability snapshots)."""
        with self._shed_lock:
            return {
                app: dict(ledger)
                for app, ledger in self._shed_deficits.items()
            }

    def with_ledger(self, app: str, write: Callable[[Dict[str, int]], Any]) -> None:
        """Hand ``write`` a copy of ``app``'s ledger *while holding the
        ledger lock*, so whatever ``write`` records (the WAL's ``shed``
        record) is ordered with every other ledger mutation."""
        with self._shed_lock:
            write(dict(self._shed_deficits.get(app, {})))

    def restore_shed(self, ledgers: Dict[str, Dict[str, int]]) -> None:
        """Adopt a restored shed-deficit ledger (crash recovery) —
        replacing wholesale: the WAL logs post-state ledgers."""
        with self._shed_lock:
            self._shed_deficits = {
                app: dict(ledger) for app, ledger in ledgers.items()
            }

    def _set_state(self, state: str) -> None:
        if state == self.state:
            return
        previous, self.state = self.state, state
        if state == STATE_SHEDDING:
            self._recorder.anomaly(
                "flow.shedding", queue=self.name, credits=self.credits
            )
        elif previous in (STATE_SHEDDING, STATE_THROTTLED) and state == STATE_OPEN:
            self._recorder.record_event(
                "flow.recovered", queue=self.name, credits=self.credits
            )

    # -- coalescing ----------------------------------------------------------

    def coalesce(self, items, unacked, message: Message) -> Optional[Message]:
        """Try to fold ``message`` into a queued write to the same
        object. Returns the survivor on success, else ``None``.

        Called under the queue lock *before* the message is appended;
        on ``None`` the caller appends and then calls :meth:`register`.
        """
        if not self.config.coalesce:
            return None
        key = coalesce_key(message)
        if key is None:
            return None
        candidate = self._index.get(key)
        if candidate is None:
            return None
        if candidate.generation != message.generation:
            self._index.pop(key, None)
            return None
        mode = self._mode_of(message.app) or WEAK
        if mode != WEAK and not self._union_safe(candidate, message, items, unacked):
            self.coalesce_rejected.increment()
            # The newer write becomes the coalesce target for whatever
            # comes next ("consecutive" means adjacent to the tail).
            self._index.pop(key, None)
            return None
        merge_into(candidate, message)
        self.coalesced.increment()
        return candidate

    def _union_safe(self, candidate, message, items, unacked) -> bool:
        """Causal/global safety: no message between the candidate and
        the tail (and nothing in flight) may depend on a key the
        candidate increments, or increment a key the absorbed write
        would newly wait on from the candidate's earlier position —
        see ``union_conflicts`` for both directions. A candidate at the
        tail with nothing in flight has no such message: safe unscanned."""
        if not unacked and items and items[-1] is candidate:
            return True
        raised = raised_waits(candidate, message)
        scanned = 0
        found = False
        for queued in reversed(items):
            if queued is candidate:
                found = True
                break
            scanned += 1
            if scanned > COALESCE_WINDOW:
                return False
            if union_conflicts(candidate, queued, raised):
                return False
        if not found:
            return False
        for in_flight in unacked.values():
            if union_conflicts(candidate, in_flight, raised):
                return False
        return True

    def register(self, message: Message) -> None:
        """Index a freshly appended message as the coalesce target for
        its object."""
        if not self.config.coalesce:
            return
        key = coalesce_key(message)
        if key is not None:
            self._index[key] = message

    def on_pop(self, message: Message) -> None:
        """A popped message can no longer absorb writes."""
        if not self._index:
            return
        key = coalesce_key(message)
        if key is not None and self._index.get(key) is message:
            del self._index[key]

    def reset(self) -> None:
        """Queue cleared (kill or recommission): fresh flow state. The
        shed ledger clears too — the re-bootstrap that follows fast-
        forwards every counter past the shed debt."""
        self._index.clear()
        self.credits = self.high
        self.credits_gauge.set(self.credits)
        self.state = STATE_OPEN
        with self._shed_lock:
            self._shed_deficits.clear()


class FlowController:
    """Ecosystem-wide flow control: one :class:`QueueFlow` per
    subscriber queue, sharing a config and the metrics registry."""

    def __init__(self, config: FlowConfig, metrics, mode_of, recorder=None) -> None:
        self.config = config
        self.metrics = metrics
        self.mode_of = mode_of
        self.recorder = recorder
        self._queues: Dict[str, QueueFlow] = {}

    def for_queue(self, queue) -> QueueFlow:
        if queue.name not in self._queues:
            self._queues[queue.name] = QueueFlow(
                queue.name,
                queue.max_size,
                self.config,
                self.metrics,
                self.mode_of,
                self.recorder,
            )
        return self._queues[queue.name]


class _NoSamples:
    """The ``batch_size`` histogram of flow off: records nothing."""

    def record(self, value: float) -> None:
        pass


class FlowOff:
    """Flow control off: the controller an ecosystem has until
    ``enable_flow`` and every queue's flow state under it (``for_queue``
    answers this one object). Infinite credit, nothing coalesced,
    nothing shed, nothing measured, and a pop of one message. Not a
    :class:`QueueFlow`: nothing here owns a ``flow.*`` instrument."""

    config = FlowConfig(batch_max=1)
    capacity = None
    batch_size = _NoSamples()

    def for_queue(self, queue: Any) -> "FlowOff":
        return self

    def admit(self, message: Message, depth: int) -> str:
        return ADMIT

    def _nothing(self, *args: Any) -> None:
        return None

    coalesce = register = on_pop = reset = restore_shed = _nothing

    def _owed_nothing(self, *args: Any) -> Dict[str, Any]:
        return {}

    shed_ledger = reconcile_shed = _owed_nothing


FLOW_OFF = FlowOff()
