"""Threaded subscriber worker pools.

"Messages in the queue are processed in parallel by multiple subscriber
workers per application" (§4). Each worker pops a batch — up to the
subscriber's ``batch_limit``, the flow controller's ``batch_max`` (one
with flow control off) — and runs the worker step on it:
:meth:`SubscriberWorkerPool.process` (wait, up to a timeout, for its
dependencies and apply) then :meth:`SubscriberWorkerPool.settle` (ack,
nack, defer or give up). A message that exceeds the retry budget is
given up on (§6.5): acked, then healed where production Synapse
rebootstraps the subscriber — by the audit-driven repair, a bootstrap
scoped to what diverged (:func:`repro.repair.repair_subscriber`). A
decommissioned queue heals the same way. A heal runs alone: no worker
step of the pool runs beside it (:meth:`SubscriberWorkerPool.stepping`).
The conformance harness schedules the same two halves inside the same
gate (docs/delivery_semantics.md, "The worker step").
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Set, Tuple

from repro.errors import DurabilityError, QueueDecommissioned
from repro.repair.repairer import repair_subscriber
from repro.runtime.interleave import observe_point, yield_point


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

        Idle additionally requires every outbox tail to be empty: a raw
        write whose entry the poller has not yet published is in-flight
        work, and reporting idle over it would let callers observe a
        missing replica row. Each pass tails the outboxes first, then
        re-checks after the pools settle.
        """
        deadline = time.monotonic() + timeout
        cdc = self.ecosystem.cdc
        while True:
            cdc.poll_all()
            for _ in range(settle_rounds):
                for pool in self.pools:
                    remaining = deadline - time.monotonic()
                    if not pool.wait_until_idle(timeout=max(0.0, remaining)):
                        return False
            if cdc.idle():
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
    ) -> None:
        self.service = service
        self.workers = workers
        self.wait_timeout = wait_timeout
        self.max_deliveries = max_deliveries
        #: The threads inside a worker step, and those healing, first
        #: come first: the first heals once every step has ended, and no
        #: step starts while any waits (:meth:`stepping`, :meth:`heal`).
        #: Notified as each ends, which :meth:`wait_until_idle` waits on.
        self._gate = threading.Condition()
        self._stepping: Set[int] = set()
        self._healing: List[int] = []
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        # Registry counters: they accumulate across this service's pools.
        registry = service.ecosystem.metrics
        self._gave_up = registry.counter(f"workers.{service.name}.gave_up")
        #: Messages whose apply raised (DB fault, bad payload): they are
        #: nacked and retried until the delivery budget runs out.
        self._apply_errors = registry.counter(f"workers.{service.name}.apply_errors")

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

    def settle(self, done: List[Any], retry: List[Any], errors: int) -> None:
        """Return every delivery of a processed batch to the queue: ack
        what applied; give up (§6.5) on what is over its delivery
        budget — ack it, then :meth:`heal`; retry the rest. A
        ``DurabilityError`` passes through.

        A batch that applied nothing and raised nothing stalled purely
        on dependency waits: its missing predecessors are behind it in
        the queue. Such a batch is *deferred* — rotated to the back so
        the chain head surfaces; nacking it to the front would re-pop
        the same messages while the predecessor starves. A batch that
        made progress, or failed, is nacked and retries at the front.
        The give-ups heal last, with the rest of the batch back in the
        queue for the heal's drain."""
        queue = self.service.subscriber.queue
        stalled = not done and not errors
        given_up = []
        for message in done:
            queue.ack(message)
        for message in retry:
            if message.delivery_count >= self.max_deliveries:
                # Record-only: the conformance checker's accounting of
                # a message that will never apply.
                observe_point("worker.gave_up", message=message)
                queue.ack(message)
                given_up.append(message.uid)
            elif stalled:
                queue.defer(message)
            else:
                queue.nack(message)
        if given_up:
            self._gave_up.increment(len(given_up))
            self.heal("worker.gave_up", uids=given_up)

    def heal(self, kind: str, **evidence: Any) -> None:
        """Heal the subscriber as a bootstrap would (§4.4, §6.5): bring
        a decommissioned queue back, then repair — audit, land the
        divergent rows, drain, raise the deficits. The given-up
        message's object and the object of any lost write are in the
        audit's scope. Records one ``kind`` anomaly with the repair's
        evidence, or with the error a failed repair raised: the worker
        lives on, and a later heal or ``repair_subscriber`` converges.
        A ``DurabilityError`` passes through. Give-ups, decommissions
        and a failed log are exactly the §6.5 events a postmortem needs
        frozen: each is a flight-recorder anomaly.

        One heal at a time, and never beside a worker step: an apply
        that passed its dependency check before the repair landed its
        object would land its older write over the repaired row. The
        caller has settled its batch, or holds none."""
        service = self.service
        subscriber, queue = service.subscriber, service.subscriber.queue
        me = threading.get_ident()
        with self._gate:
            self._stepping.discard(me)  # settled: no longer mid-step
            self._healing.append(me)
        try:
            self._await(lambda: self._healing[0] == me and not self._stepping)
            if kind == "queue.decommissioned" and not queue.decommissioned:
                return  # another worker's heal brought it back
            if queue.decommissioned:
                queue.recommission()
            result = repair_subscriber(service, reaudit=False)
        except DurabilityError:
            raise
        except Exception as exc:
            evidence["error"] = f"{type(exc).__name__}: {exc}"
        else:
            evidence.update(objects_repaired=result.objects_repaired,
                            landed=result.landed, stuck=result.stuck)
        finally:
            # The repair's bootstrap ends with the heal, also when its
            # drain left messages queued or it raised: the workers apply
            # in the configured mode again.
            subscriber.bootstrapping = False
            with self._gate:
                self._healing.remove(me)
                self._gate.notify_all()
        service.ecosystem.recorder.anomaly(kind, service=service.name, **evidence)

    @contextmanager
    def stepping(self) -> Iterator[None]:
        """``with pool.stepping():`` around one worker step — the
        ``process`` and ``settle`` of a popped batch. It waits while a
        heal runs, and a heal waits for it to end."""
        me = threading.get_ident()
        self._await(lambda: not self._healing, lambda: self._stepping.add(me))
        try:
            yield
        finally:
            with self._gate:
                self._stepping.discard(me)
                self._gate.notify_all()

    def _await(self, ready: Callable[[], bool], then: Callable[[], Any] = lambda: None) -> None:
        """Wait until ``ready()``, then run ``then()`` — both under
        ``_gate``. Polled at ``wait_timeout``, with a yield point
        between polls: under the conformance scheduler the worker this
        one waits for runs only when this one yields."""
        while True:
            with self._gate:
                if ready():
                    then()
                    return
                self._gate.wait(self.wait_timeout)
            yield_point("worker.heal_wait")

    def _run(self) -> None:
        """One pool thread: pop up to ``batch_limit`` deliveries in one
        lock round-trip, then run the worker step on them; heal a
        decommissioned queue and keep popping."""
        subscriber = self.service.subscriber
        queue = subscriber.queue
        if queue is None:
            return
        limit = subscriber.batch_limit
        while not self._stop.is_set():
            try:
                batch = queue.pop_many(limit, timeout=0.05)
            except QueueDecommissioned:
                batch = None  # heal the queue, then pop again
            if batch == []:
                continue
            try:
                if batch is None:
                    self.heal("queue.decommissioned")
                    continue
                # One WAL step (nothing without durability): the batch's
                # ``apply`` records and the acks that settle it reach the
                # kernel in one write when the block ends.
                with self.stepping(), queue.step:
                    self.settle(*self.process(batch))
                queue.flow.batch_size.record(len(batch))
            except DurabilityError as exc:
                # From an apply's record, an ack's, a heal's, or the
                # write that ends the step: the log is fail-stop, nothing
                # settled after it is durable, so every worker stops
                # popping, and the one that hit it first records one
                # ``worker.fatal`` anomaly: restart the process over the
                # surviving log prefix (docs/durability.md).
                with self._gate:
                    first = not self._stop.is_set()
                    self._stop.set()
                if first:
                    self.service.ecosystem.recorder.anomaly(
                        "worker.fatal", service=self.service.name,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                return

    # -- synchronisation -----------------------------------------------------------

    def wait_until_idle(self, timeout: float = 10.0) -> bool:
        """Block until the queue is drained and no worker is mid-message.

        Event-driven: a worker step and a heal notify the gate as they
        end; the short bounded wait is only a safety net against
        transitions with no notifier (e.g. an external publish while the
        pool is idle). A decommissioned queue is not drained: a heal is
        owed.
        """
        queue = self.service.subscriber.queue
        deadline = time.monotonic() + timeout

        def drained() -> bool:
            return queue is None or not (
                queue.decommissioned or len(queue) or queue.unacked_count
            )

        with self._gate:
            while True:
                if not self._stepping and not self._healing and drained():
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._gate.wait(min(remaining, 0.25))
