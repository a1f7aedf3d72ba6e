"""The broker: routing from publisher apps to subscriber queues, plus the
publisher metadata registry backing Synapse's static checks (§4.5)."""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.broker.message import Message
from repro.broker.queue import NO_STEP, SubscriberQueue
from repro.errors import BrokerError
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.tracing import STAGE_FORWARD, STAGE_ROUTE, trace_now


class Broker:
    """Reliable pub/sub fabric between services.

    Every subscriber application owns one durable queue; a queue receives
    the messages of every publisher app it is bound to. The broker also
    stores each publisher's *publisher file*: the models/attributes it
    publishes and its delivery mode, consumed by subscribers for static
    validation (§3.1, §4.5).

    ``loss_probability``/``drop_next`` inject message loss to reproduce
    the RabbitMQ-upgrade incident of §6.5.
    """

    def __init__(
        self,
        default_queue_limit: Optional[int] = None,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._queues: Dict[str, SubscriberQueue] = {}
        #: subscriber app -> set of publisher apps it listens to
        self._bindings: Dict[str, Set[str]] = {}
        #: publisher app -> model name -> (fields, delivery_mode)
        self._publications: Dict[str, Dict[str, Tuple[List[str], str]]] = {}
        self._publisher_modes: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._default_queue_limit = default_queue_limit
        self._rng = random.Random(seed)
        self.loss_probability = 0.0
        self._drop_next = 0
        #: Shared with the owning ecosystem (an ecosystem adopting a
        #: pre-built broker adopts this registry).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Flight recorder (bound by the owning ecosystem): every dropped
        #: routing gets a structured event so a postmortem dump names the
        #: exact lost message (§6.5).
        self.recorder = None
        #: Tracer (bound by the owning ecosystem): traced messages bound
        #: for remote shards leave their origin-side spans here as a
        #: partial trace before the wire copy departs.
        self.tracer = None
        #: FlowController (bound via :meth:`attach_flow` when the owning
        #: ecosystem enables flow control): every queue gets per-queue
        #: admission credits and a coalescing index.
        self.flow = None
        #: Shard seam (bound via :meth:`attach_placement` by the shard
        #: runtime): ``(is_local, forwarder)``. ``None`` means every
        #: subscriber queue is drained in this process.
        self._placement = None
        #: DurabilityManager (bound via :meth:`attach_durability` when
        #: the owning ecosystem enables durability): publishes and queue
        #: transitions are logged to the write-ahead log.
        self.durability = None
        # Registry-backed atomic counters: concurrent publishers used to
        # bump plain ints outside self._lock and lose increments.
        self._dropped = self.metrics.counter("broker.dropped")
        self._routed = self.metrics.counter("broker.routed")

    # -- publisher metadata ("publisher files") ------------------------------

    def register_publication(
        self, app: str, model: str, fields: List[str], delivery_mode: str
    ) -> None:
        with self._lock:
            models = self._publications.setdefault(app, {})
            existing = models.get(model)
            if existing is not None:
                fields = sorted(set(existing[0]) | set(fields))
            models[model] = (list(fields), delivery_mode)
            self._publisher_modes[app] = delivery_mode

    def published_fields(self, app: str, model: str) -> Optional[List[str]]:
        models = self._publications.get(app)
        if models is None or model not in models:
            return None
        return list(models[model][0])

    def publisher_mode(self, app: str) -> Optional[str]:
        return self._publisher_modes.get(app)

    def published_models(self, app: str) -> List[str]:
        return sorted(self._publications.get(app, {}))

    # -- queue management ---------------------------------------------------------

    def queue_for(self, subscriber_app: str) -> SubscriberQueue:
        with self._lock:
            queue = self._queues.get(subscriber_app)
            if queue is None:
                queue = SubscriberQueue(
                    subscriber_app, max_size=self._default_queue_limit
                )
                if self.flow is not None:
                    queue.flow = self.flow.for_queue(queue)
                queue.durability = self.durability
                self._queues[subscriber_app] = queue
            return queue

    def attach_flow(self, controller) -> None:
        """Enable flow control: give every queue (existing and future)
        its per-queue admission/coalescing state."""
        with self._lock:
            self.flow = controller
            for queue in self._queues.values():
                queue.flow = controller.for_queue(queue)

    def attach_durability(self, manager) -> None:
        """Enable durability logging: every queue (existing and future)
        logs its state transitions through ``manager``, and every
        publish leaves an ``out`` record."""
        with self._lock:
            self.durability = manager
            for queue in self._queues.values():
                queue.durability = manager

    def attach_placement(self, is_local, forwarder) -> None:
        """Shard seam: ``is_local(subscriber_app)`` says whether that
        queue is drained on this shard; ``forwarder(subscriber_app,
        payload_json)`` ships the wire payload to the owning shard, whose
        :meth:`deliver_remote` enqueues it there (so flow admission and
        routing spans run where the queue is actually drained)."""
        with self._lock:
            self._placement = (is_local, forwarder)

    def bind(self, subscriber_app: str, publisher_app: str) -> SubscriberQueue:
        """Subscribe ``subscriber_app``'s queue to ``publisher_app``."""
        queue = self.queue_for(subscriber_app)
        with self._lock:
            self._bindings.setdefault(subscriber_app, set()).add(publisher_app)
        return queue

    def subscribers_of(self, publisher_app: str) -> List[str]:
        with self._lock:
            return sorted(
                sub for sub, pubs in self._bindings.items() if publisher_app in pubs
            )

    # -- routing ----------------------------------------------------------------

    def publish(self, message: Message) -> None:
        """Fan the message out to every bound subscriber queue.

        The message is serialised only where bytes are consumed: for the
        ``out`` record when durability is attached, for the forwarder when
        a target queue lives on another shard — at most once per publish,
        and not at all when every queue is local and nothing is logged (a
        non-serialisable value was already refused where the body was
        built, ``core.marshal.wire_value``). Each local queue receives its
        own :meth:`Message.delivery`: delivery state and trace are per
        queue, the (immutable) body and the cell its encoded form lands in
        are shared, so no queue parses anything and the WAL records a
        delivery rides in never encode it again.

        Under a shard placement, queues owned by other shards receive the
        wire payload via the forwarder instead of a local enqueue.
        """
        payload: Optional[str] = None
        # One WAL step (nothing without durability): the ``out`` record
        # and every local queue's ``pub`` reach the kernel in one write
        # when the block ends — before the caller is answered, and
        # before anything is handed to the forwarder below.
        with getattr(self.durability, "step", NO_STEP):
            if self.durability is not None:
                # The one encode of this publish: the ``out`` record,
                # every delivery's ``pub``/``apply`` records and the
                # forwarder all reuse the body this fills the shared
                # cell with.
                payload = message.to_json()
                # Logged before fan-out: the publisher's version store
                # is already bumped, so the record carries the counter
                # state a restored process must resume publishing from.
                self.durability.log_out(message)
                if message.trace is not None:
                    # The trace just gained the record's ``wal.append``
                    # span; splice it onto the cached body again below.
                    payload = None
            with self._lock:
                targets = [
                    (sub, self._queues[sub])
                    for sub, pubs in self._bindings.items()
                    if message.app in pubs and sub in self._queues
                ]
                placement = self._placement
            if placement is not None:
                is_local, forwarder = placement
                local = [(sub, queue) for sub, queue in targets if is_local(sub)]
                remote = [sub for sub, _ in targets if not is_local(sub)]
            else:
                local, remote = targets, []
            # Graduated backpressure, stage one: stall the publishing
            # thread while a target queue is out of admission credits
            # ("slow before shed before kill"). Off unless the flow
            # config sets a delay. Remote queues exercise admission on
            # their owning shard instead.
            delay = 0.0
            for _, queue in local:
                if queue.flow is not None:
                    delay = max(delay, queue.flow.publish_delay())
            if delay > 0:
                time.sleep(delay)
            traced = message.trace is not None
            for sub, queue in local:
                if self._should_drop():
                    self._record_drop(sub, message)
                    continue
                start = trace_now() if traced else 0.0
                self._enqueue(queue, message.delivery(), start)
        for sub in remote:
            if self._should_drop():
                self._record_drop(sub, message)
                continue
            if payload is None:
                payload = message.to_json()
            start = trace_now() if traced else 0.0
            forwarder(sub, payload)
            if traced:
                # The wire copy was serialized before this span exists,
                # so the forward span stays origin-local: the subscriber
                # shard finishes the trace, and this shard keeps the
                # publisher half (intercept/route/forward) as a partial
                # for cross-shard assembly (``trace_fetch``).
                message.trace.add(STAGE_FORWARD, start, trace_now() - start)
                if self.tracer is not None:
                    self.tracer.record_partial(message.trace)

    def deliver_remote(self, subscriber_app: str, payload: str) -> None:
        """Enqueue a wire payload forwarded from another shard.

        Runs on the shard that owns ``subscriber_app``'s queue, so flow
        admission, routing spans and the routed counter all land where
        the queue is drained.
        """
        queue = self.queue_for(subscriber_app)
        if queue.flow is not None:
            delay = queue.flow.publish_delay()
            if delay > 0:
                time.sleep(delay)
        start = trace_now()
        self._enqueue(queue, Message.from_json(payload), start)

    def _enqueue(self, queue: SubscriberQueue, delivery: Message, start: float) -> None:
        """Hand one queue its delivery; the route span of a traced one
        runs from ``start`` (taken before the delivery was made, so it
        covers the copy or the decode) to the end of the enqueue."""
        queue.publish(delivery)
        if delivery.trace is not None:
            delivery.trace.add(STAGE_ROUTE, start, trace_now() - start)
        self._routed.increment()

    # -- fault injection -----------------------------------------------------------

    def drop_next(self, count: int = 1) -> None:
        with self._lock:
            self._drop_next += count

    def reseed(self, seed: int) -> None:
        """Re-seed the loss RNG so chaos runs are reproducible from any
        point (fault-injection determinism audit)."""
        with self._lock:
            self._rng = random.Random(seed)

    def _should_drop(self) -> bool:
        if self._drop_next:  # peeked unlocked: no armed drop, no lock
            with self._lock:
                if self._drop_next > 0:
                    self._drop_next -= 1
                    return True
        return self.loss_probability > 0 and self._rng.random() < self.loss_probability

    def _record_drop(self, subscriber_app: str, message: Message) -> None:
        """Count a lost routing and name it in the flight recorder."""
        self._dropped.increment()
        if self.recorder is not None:
            self.recorder.record_event(
                "broker.drop",
                queue=subscriber_app,
                uid=message.uid,
                app=message.app,
            )

    # -- introspection ----------------------------------------------------------

    def backlog(self) -> Dict[str, int]:
        with self._lock:
            return {name: len(queue) for name, queue in self._queues.items()}

    def in_flight(self) -> Dict[str, int]:
        """Per-queue delivered-but-unacked counts. ``backlog()`` alone
        undercounts transit lag: a message a worker has popped but not
        acked is neither queued nor applied."""
        with self._lock:
            return {name: queue.unacked_count for name, queue in self._queues.items()}

    def queue_stats(self, subscriber_app: Optional[str] = None) -> Dict[str, Dict[str, int]]:
        """Full queue accounting (queued/in_flight/published/acked/
        decommissioned) for one subscriber or all of them."""
        with self._lock:
            if subscriber_app is not None:
                queue = self._queues.get(subscriber_app)
                return {subscriber_app: queue.stats()} if queue is not None else {}
            return {name: queue.stats() for name, queue in self._queues.items()}

    def validate_binding(self, subscriber_app: str, publisher_app: str) -> None:
        if publisher_app not in self._publications:
            raise BrokerError(
                f"{subscriber_app!r} subscribes to unknown publisher {publisher_app!r}"
            )
