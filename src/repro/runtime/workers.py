"""Threaded subscriber worker pools.

"Messages in the queue are processed in parallel by multiple subscriber
workers per application" (§4). Each worker pops a batch — one message,
unless flow control sizes it larger — and runs the worker step on it:
:meth:`SubscriberWorkerPool.process` (wait, up to a timeout, for its
dependencies and apply) then :meth:`SubscriberWorkerPool.settle` (ack,
nack, defer or give up). A message that exceeds the retry budget
triggers the deadlock callback — production Synapse rebootstraps the
subscriber at that point (§6.5). The conformance harness schedules the
same two halves (docs/delivery_semantics.md, "The worker step").
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import DurabilityError, QueueDecommissioned
from repro.runtime.flow.batch import BatchSizer
from repro.runtime.interleave import observe_point
from repro.runtime.metrics import Counter


class WorkerFleet:
    """One pool per subscribing service of an ecosystem.

    ::

        with WorkerFleet(eco, workers=4) as fleet:
            ...publish...
            fleet.wait_until_idle()
    """

    def __init__(self, ecosystem: Any, workers: int = 4, **pool_kwargs: Any) -> None:
        self.ecosystem = ecosystem
        # Only locally-owned services get worker pools: in a process-
        # sharded run each shard drains exactly its own queues.
        self.pools: List["SubscriberWorkerPool"] = [
            SubscriberWorkerPool(service, workers=workers, **pool_kwargs)
            for service in ecosystem.local_services()
            if service.subscriber.queue is not None
        ]

    def start(self) -> "WorkerFleet":
        for pool in self.pools:
            pool.start()
        return self

    def stop(self) -> None:
        for pool in self.pools:
            pool.stop()

    def wait_until_idle(self, timeout: float = 30.0, settle_rounds: int = 3) -> bool:
        """Idle only counts when every pool is simultaneously drained for
        ``settle_rounds`` consecutive checks (decorator cascades bounce
        messages between services).

        ``timeout`` bounds the *whole* call: one deadline is shared
        across every round and pool. Granting each pool the full budget
        would let a busy fleet block for ``settle_rounds × pools ×
        timeout`` — 24x the caller's stated patience at the defaults.

        With CDC enabled, idle additionally requires every outbox tail
        to be empty: a raw write whose entry the poller has not yet
        published is in-flight work, and reporting idle over it would
        let callers observe a missing replica row. Each pass tails the
        outboxes first, then re-checks after the pools settle.
        """
        deadline = time.monotonic() + timeout
        while True:
            cdc = self.ecosystem.cdc
            if cdc is not None:
                cdc.poll_all()
            for _ in range(settle_rounds):
                for pool in self.pools:
                    remaining = deadline - time.monotonic()
                    if not pool.wait_until_idle(timeout=max(0.0, remaining)):
                        return False
            if cdc is None or cdc.idle():
                return True
            if time.monotonic() >= deadline:
                return False

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class SubscriberWorkerPool:
    """N threads draining one subscriber's queue concurrently."""

    def __init__(
        self,
        service: Any,
        workers: int = 4,
        wait_timeout: float = 0.2,
        max_deliveries: int = 20,
        on_deadlock: Optional[Callable[[Any], None]] = None,
        give_up_action: str = "drop",
    ) -> None:
        if give_up_action not in ("drop", "apply"):
            raise ValueError("give_up_action must be 'drop' or 'apply'")
        self.service = service
        self.workers = workers
        self.wait_timeout = wait_timeout
        self.max_deliveries = max_deliveries
        self.on_deadlock = on_deadlock
        #: What to do with a message whose dependencies never arrive:
        #: "drop" it, or "apply" it with weak semantics (§6.5's
        #: configurable give-up timeout).
        self.give_up_action = give_up_action
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._active = 0
        self._active_lock = threading.Lock()
        # Event-based idle signaling: workers notify after every message
        # completion (replacing the old 5 ms busy-poll in
        # :meth:`wait_until_idle`).
        self._idle = threading.Condition(self._active_lock)
        # Registry counters: they accumulate across this service's pools.
        registry = service.ecosystem.metrics
        self._deadlocked = registry.counter(f"workers.{service.name}.deadlocked")
        #: Messages whose apply raised (DB fault, bad payload): they are
        #: nacked and retried until the delivery budget runs out.
        self._apply_errors = registry.counter(f"workers.{service.name}.apply_errors")
        self._recorder = getattr(service.ecosystem, "recorder", None)
        # Flow control: the pool's workers share one AIMD batch sizer;
        # without it every batch is one message.
        controller = getattr(service.ecosystem, "flow", None)
        self._sizer = None if controller is None else BatchSizer(controller.config)
        self._batches = Counter()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SubscriberWorkerPool":
        self._stop.clear()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._run, name=f"{self.service.name}-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()

    def __enter__(self) -> "SubscriberWorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- the worker step -------------------------------------------------------
    #
    # What happens to a popped batch: ``process`` then ``settle``, inside
    # one ``with queue.step:``. The pool's threads and the conformance
    # harness's virtual workers run these same two halves; a simulated
    # worker crash is ``process``, then leaving the step without
    # ``settle``.

    def process(self, batch: List[Any]) -> Tuple[List[Any], List[Any], int]:
        """Verify and apply a popped batch; returns ``process_batch``'s
        ``(done, retry, errors)`` for :meth:`settle`.

        First deliveries probe without blocking: when the queue holds
        out-of-order messages, burning the full dependency wait on each
        pop serialises chain-head discovery at ``wait_timeout`` per pop
        (with every worker parked, nothing progresses at all). A fast
        defer scans the queue in one cheap rotation instead;
        redeliveries block as before so an in-flight predecessor still
        satisfies us without another round trip through the queue."""
        first = all(message.delivery_count <= 1 for message in batch)
        try:
            done, retry, errors = self.service.subscriber.process_batch(
                batch, wait_timeout=0.0 if first else self.wait_timeout
            )
        except DurabilityError:
            raise
        except Exception:
            # process_batch contains apply errors itself; this guards the
            # verification phase. A transient fault (or poisonous
            # payload) must not kill the worker: retry everything.
            done, retry, errors = [], batch, 1
        if errors:
            self._apply_errors.increment(errors)
        return done, retry, errors

    def settle(self, done: List[Any], retry: List[Any], errors: int) -> bool:
        """Return every delivery of a processed batch to the queue: ack
        what applied; give up (§6.5) on what is over its delivery
        budget; retry the rest. False when the queue was decommissioned
        under the batch (routed to ``on_deadlock``; the worker is
        finished). A ``DurabilityError`` passes through.

        A batch that applied nothing and raised nothing stalled purely
        on dependency waits: its missing predecessors are behind it in
        the queue. Such a batch is *deferred* — rotated to the back so
        the chain head surfaces; nacking it to the front would re-pop
        the same messages while the predecessor starves. A batch that
        made progress, or failed, is nacked and retries at the front."""
        queue = self.service.subscriber.queue
        stalled = not done and not errors
        try:
            for message in done:
                queue.ack(message)
            for message in retry:
                if message.delivery_count >= self.max_deliveries:
                    self._give_up(message)
                elif stalled:
                    queue.defer(message)
                else:
                    queue.nack(message)
        except QueueDecommissioned:
            # The queue died while these deliveries were in flight (their
            # ack/nack is a tolerated no-op). Route the decommission like
            # the pop path does instead of letting the exception kill the
            # worker silently.
            self._on_decommission()
            return False
        return True

    def _run(self) -> None:
        """One pool thread: pop up to the batch size in one lock
        round-trip, run the worker step, then feed the outcome — and,
        periodically, the LagMonitor's link pressure — back into the
        sizer."""
        queue = self.service.subscriber.queue
        if queue is None:
            return
        sizer = self._sizer
        flow = queue.flow
        monitor = getattr(self.service.ecosystem, "monitor", None)
        while not self._stop.is_set():
            try:
                batch = queue.pop_many(
                    1 if sizer is None else sizer.current, timeout=0.05
                )
            except QueueDecommissioned:
                self._on_decommission()
                return
            if not batch:
                continue
            with self._active_lock:
                self._active += 1
            try:
                # One WAL step (nothing without durability): the batch's
                # ``apply`` records and the acks that settle it reach the
                # kernel in one write when the block ends.
                with queue.step:
                    done, retry, errors = self.process(batch)
                    if not self.settle(done, retry, errors):
                        return
                if flow is not None:
                    flow.batch_size.record(len(batch))
                if sizer is not None:
                    sizer.on_batch(
                        popped=len(batch), applied=len(done),
                        failed=len(retry) + errors,
                    )
                    if self._batches.increment() % 32 == 0 and monitor is not None:
                        sizer.observe_pressure(
                            monitor.link_pressure(self.service.name)
                        )
            except DurabilityError as exc:
                # From an apply's record, an ack's, or the write that
                # ends the step: the log is fail-stop, nothing settled
                # after it is durable, so the pool is finished.
                self._on_fatal(exc)
                return
            finally:
                with self._idle:
                    self._active -= 1
                    self._idle.notify_all()

    def _on_decommission(self) -> None:
        self._record_anomaly("queue.decommissioned")
        if self.on_deadlock is not None:
            self.on_deadlock(self.service)

    def _on_fatal(self, error: DurabilityError) -> None:
        """The WAL failed under a worker. Like a decommission this ends
        the pool — every worker stops popping — and the owner hears of
        it once, from the worker that hit it first: restart the process
        over the surviving log prefix (docs/durability.md)."""
        with self._active_lock:
            first = not self._stop.is_set()
            self._stop.set()
        if first:
            self._record_anomaly(
                "worker.fatal", error=f"{type(error).__name__}: {error}"
            )
            if self.on_deadlock is not None:
                self.on_deadlock(self.service)

    def _give_up(self, message: Any) -> None:
        """Give-up timeout reached (§6.5): drop or weak-apply, then ack."""
        subscriber = self.service.subscriber
        # Record-only: the conformance checker's accounting of a message
        # that will never apply.
        observe_point("worker.gave_up", message=message)
        if self.give_up_action == "apply":
            subscriber.force_apply(message)
        subscriber.queue.ack(message)
        self._deadlocked.increment()
        self._record_anomaly(
            "worker.deadlock",
            uid=message.uid,
            app=message.app,
            deliveries=message.delivery_count,
            action=self.give_up_action,
        )
        if self.on_deadlock is not None:
            self.on_deadlock(self.service)

    def _record_anomaly(self, kind: str, **data: Any) -> None:
        """Flight-recorder hook: give-ups and decommissions are exactly
        the §6.5 events a postmortem needs frozen."""
        if self._recorder is not None:
            self._recorder.anomaly(kind, service=self.service.name, **data)

    # -- synchronisation -----------------------------------------------------------

    def wait_until_idle(self, timeout: float = 10.0) -> bool:
        """Block until the queue is drained and no worker is mid-message.

        Event-driven: workers notify the condition after every message
        completion; the short bounded wait is only a safety net against
        transitions with no notifier (e.g. an external publish while the
        pool is idle).
        """
        queue = self.service.subscriber.queue
        deadline = time.monotonic() + timeout

        def drained() -> bool:
            return queue is None or (len(queue) == 0 and queue.unacked_count == 0)

        with self._idle:
            while True:
                if self._active == 0 and drained():
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(min(remaining, 0.25))
