"""The broker: routing from publisher apps to subscriber queues, plus the
publisher metadata registry backing Synapse's static checks (§4.5)."""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.broker.message import Message
from repro.broker.queue import SubscriberQueue
from repro.durability.manager import DURABILITY_OFF
from repro.runtime.flow.admission import FLOW_OFF
from repro.runtime.interleave import PUBLISHER_ROUTED, emit
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.monitor.recorder import FlightRecorder
from repro.runtime.tracing import STAGE_FORWARD, STAGE_ROUTE, Tracer, trace_now

#: An unsharded broker's placement: every queue is drained in this
#: process, so nothing is ever handed to a forwarder.
EVERY_QUEUE_LOCAL = (lambda subscriber_app: True, None)

#: What :meth:`Broker.attach` swaps in.
PARTS = ("flow", "durability", "placement")


class Broker:
    """Reliable pub/sub fabric between services.

    Every subscriber application owns one durable queue; a queue receives
    the messages of every publisher app it is bound to. The broker also
    stores each publisher's *publisher file*: the models/attributes it
    publishes and its delivery mode, consumed by subscribers for static
    validation (§3.1, §4.5).

    ``drop_next`` injects message loss to reproduce the RabbitMQ-upgrade
    incident of §6.5.
    """

    def __init__(
        self,
        default_queue_limit: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        recorder: Optional[FlightRecorder] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._queues: Dict[str, SubscriberQueue] = {}
        #: subscriber app -> set of publisher apps it listens to
        self._bindings: Dict[str, Set[str]] = {}
        #: publisher app -> ``(local {subscriber app: queue}, remote
        #: [subscriber app])``: the bindings split by placement, rebuilt
        #: by :meth:`bind` and :meth:`attach` rather than per publish.
        self._routes: Dict[str, Tuple[Dict[str, SubscriberQueue], List[str]]] = {}
        #: publisher app -> model name -> (fields, delivery_mode)
        self._publications: Dict[str, Dict[str, Tuple[List[str], str]]] = {}
        self._publisher_modes: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._default_queue_limit = default_queue_limit
        self._drop_next = 0
        #: The owning ecosystem's registry and observers.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Every dropped routing gets a structured event here, so a
        #: postmortem dump names the exact lost message (§6.5).
        self.recorder = recorder or FlightRecorder()
        #: Traced messages bound for remote shards leave their
        #: origin-side spans here as a partial trace before the wire
        #: copy departs.
        self.tracer = tracer or Tracer()
        #: What every queue is wired to, each in its off form until
        #: :meth:`attach` swaps in the on form: the flow controller
        #: (per-queue admission credits and a coalescing index), the log
        #: (publishes and queue transitions go to the write-ahead log)
        #: and the shard seam ``(is_local, forwarder)``.
        self.flow = FLOW_OFF
        self.durability = DURABILITY_OFF
        self.placement = EVERY_QUEUE_LOCAL
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
                self._wire(queue)
                self._queues[subscriber_app] = queue
            return queue

    def attach(self, **parts: Any) -> None:
        """Swap a subsystem's on form in: ``flow=`` a FlowController,
        ``durability=`` a DurabilityManager (every publish then leaves an
        ``out`` record), ``placement=`` an ``(is_local, forwarder)`` pair
        — ``is_local(subscriber_app)``, a function of the name alone,
        says whether that queue is drained on this shard,
        ``forwarder(subscriber_app, payload_json)`` ships the wire
        payload to the owning shard, whose :meth:`deliver_remote`
        enqueues it there (so flow admission and routing spans run where
        the queue is drained). Every queue, existing and future, is wired
        to what is attached."""
        unknown = sorted(set(parts) - set(PARTS))
        if unknown:
            raise TypeError(f"Broker.attach() cannot attach {unknown}")
        with self._lock:
            for name, part in parts.items():
                setattr(self, name, part)
            for queue in self._queues.values():
                self._wire(queue)
            self._route_locked()

    def _wire(self, queue: SubscriberQueue) -> None:
        queue.flow = self.flow.for_queue(queue)
        queue.durability = self.durability

    def local_queues(self) -> List[SubscriberQueue]:
        """The queues drained in this process: all of them, unless a
        shard placement says otherwise."""
        with self._lock:
            is_local = self.placement[0]
            return [queue for name, queue in self._queues.items() if is_local(name)]

    def bind(self, subscriber_app: str, publisher_app: str) -> SubscriberQueue:
        """Subscribe ``subscriber_app``'s queue to ``publisher_app``."""
        queue = self.queue_for(subscriber_app)
        with self._lock:
            self._bindings.setdefault(subscriber_app, set()).add(publisher_app)
            self._route_locked()
        return queue

    def _route_locked(self) -> None:
        """Rebuild :attr:`_routes`; caller holds ``self._lock``."""
        is_local = self.placement[0]
        routes: Dict[str, Tuple[Dict[str, SubscriberQueue], List[str]]] = {}
        for sub, pubs in self._bindings.items():
            for app in pubs:
                local, remote = routes.setdefault(app, ({}, []))
                if is_local(sub):
                    local[sub] = self._queues[sub]
                else:
                    remote.append(sub)
        self._routes = routes

    # -- routing ----------------------------------------------------------------

    def publish(self, message: Message) -> None:
        """Fan the message out to every bound subscriber queue.

        The message is serialised only where bytes are consumed: for the
        ``out`` record when durability is on, for the forwarder when a
        target queue lives on another shard — at most once per publish,
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
        # One WAL step (nothing without durability): the ``out`` record
        # reaches the kernel in one write when the block ends — before
        # the caller is answered, and before anything is handed to the
        # forwarder below.
        with self.durability.step:
            with self._lock:
                local, remote = self._routes.get(message.app, ({}, ()))
                forwarder = self.placement[1]
            if self._drop_next:  # peeked unlocked: no armed drop, no work
                local = {sub: q for sub, q in local.items() if not self._dropped_on(sub, message)}
            # Logged before fan-out, and after the drops: the publisher's
            # version store is already bumped, so the record carries the
            # counter state a restored process must resume publishing
            # from, and names the queues it is delivered to here — each
            # one's ``pub`` on replay. Its encode is the one encode of this
            # publish: every delivery's ``apply`` records and the
            # forwarder reuse the body it fills the shared cell with.
            emit(self.durability, PUBLISHER_ROUTED, tuple(local), message)
            traced = message.trace is not None
            for queue in local.values():
                start = trace_now() if traced else 0.0
                self._enqueue(queue, message.delivery(), start)
        payload: Optional[str] = None
        for sub in remote:
            if self._dropped_on(sub, message):
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
                self.tracer.record_partial(message.trace)

    def deliver_remote(self, subscriber_app: str, payload: str) -> None:
        """Enqueue a wire payload forwarded from another shard.

        Runs on the shard that owns ``subscriber_app``'s queue, so flow
        admission, routing spans and the routed counter all land where
        the queue is drained.
        """
        queue = self.queue_for(subscriber_app)
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

    def _dropped_on(self, subscriber_app: str, message: Message) -> bool:
        """Take one armed drop, if any, for this routing: count the lost
        routing and name it in the flight recorder."""
        if not self._drop_next:  # peeked unlocked: no armed drop, no lock
            return False
        with self._lock:
            if self._drop_next <= 0:
                return False
            self._drop_next -= 1
        self._dropped.increment()
        self.recorder.record_event(
            "broker.drop", queue=subscriber_app, uid=message.uid, app=message.app
        )
        return True

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
