"""End-to-end tracing of the publish→route→apply hot path.

A :class:`Trace` rides inside the Fig 6(b) message envelope (it survives
the JSON wire round trip and is forked per local delivery), accumulating one
:class:`Span` per pipeline stage:

    publisher.intercept       the whole ORM-intercepted write
    publisher.collect_deps    dependency collection from the controller ctx
    publisher.version_register  version-store counter bumps
    publisher.engine_write    the underlying engine write
    broker.route              delivery + enqueue into one subscriber queue
    queue.dwell               time spent sitting in the durable queue
    subscriber.dep_wait       waiting for dependency counters
    subscriber.apply          applying the operations through the local ORM
    wal.append                one WAL record about the message (durability
                              on: ``out``, then ``pub``/``apply``/``ack``
                              per queue copy): encode + buffer, and the
                              write when the record is not part of a step
    wal.flush                 the one write of a step's records (fsync
                              ``off``), on the last traced message the
                              step logged

plus point-in-time marks (``queue.enqueued``, ``subscriber.ack``). The
per-ecosystem :class:`Tracer` is the on/off switch and the sink finished
traces land in; tracing is off by default and a disabled tracer adds a
single ``None`` check to the hot path.

Two production-mode facilities on top (docs/observability.md,
"Replication-health monitoring"):

- **sampled always-on tracing** — ``eco.enable_tracing(sample_rate=0.01)``
  keeps the tracer on permanently at bounded cost: a deterministic
  head-based decision (seeded hash of the message uid) picks which
  messages carry their trace across the wire. Same seed + rate → the
  same sampled uid set, so a trace seen on one link is seen on all.
- **trace ids + the active-trace context** — every trace has a
  ``trace_id`` (adopted from the message uid when one attaches), and the
  thread applying a traced message runs under :func:`activate_trace`, so
  a slow ``Histogram.record`` can capture the current id as an exemplar.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from repro.clock import DEFAULT_CLOCK

# Stage names, in pipeline order (used for display sorting and docs).
STAGE_INTERCEPT = "publisher.intercept"
STAGE_COLLECT = "publisher.collect_deps"
STAGE_REGISTER = "publisher.version_register"
STAGE_ENGINE_WRITE = "publisher.engine_write"
STAGE_ROUTE = "broker.route"
#: Shipping one wire payload across the broker's shard seam (recorded on
#: the origin shard; the receiving shard's first span is its own ROUTE).
STAGE_FORWARD = "transport.forward"
STAGE_DWELL = "queue.dwell"
STAGE_DEP_WAIT = "subscriber.dep_wait"
STAGE_APPLY = "subscriber.apply"
#: Group-commit window of the flow-control batched apply: one span per
#: batched message, covering the whole batch transaction it rode in.
STAGE_BATCH = "subscriber.batch_apply"
#: One durability WAL append about the message (encode + buffer; outside
#: a step also the write, plus the fsync under ``always``). Nested
#: inside whichever stage logged it.
STAGE_WAL = "wal.append"
#: The write that ends a step (``DurabilityManager.step``): every record
#: buffered since the last one, in one ``write``.
STAGE_WAL_FLUSH = "wal.flush"

MARK_ENQUEUED = "queue.enqueued"
MARK_ACKED = "subscriber.ack"

# Anti-entropy stages: an audit run records one standalone trace (no
# message rides along) with digest-build, Merkle-diff and repair-publish
# spans, so `python -m repro repair --demo` and tests can see where an
# audit spends its time.
STAGE_AUDIT_DIGEST = "audit.digest"
STAGE_AUDIT_DIFF = "audit.merkle_diff"
STAGE_REPAIR_PUBLISH = "repair.publish"

PIPELINE_STAGES = (
    STAGE_INTERCEPT,
    STAGE_COLLECT,
    STAGE_REGISTER,
    STAGE_ENGINE_WRITE,
    STAGE_ROUTE,
    STAGE_FORWARD,
    STAGE_DWELL,
    STAGE_DEP_WAIT,
    STAGE_APPLY,
    STAGE_BATCH,
    STAGE_WAL,
    STAGE_WAL_FLUSH,
    STAGE_AUDIT_DIGEST,
    STAGE_AUDIT_DIFF,
    STAGE_REPAIR_PUBLISH,
)


def trace_now() -> float:
    """Timestamp source for spans: always the wall monotonic clock, so
    publisher- and subscriber-side spans are comparable across threads
    (ecosystem clocks may be virtual). *Not* comparable across processes
    — the cluster plane estimates per-peer offsets and normalizes spans
    at assembly time (repro.runtime.monitor.cluster)."""
    return DEFAULT_CLOCK.monotonic()


# -- process shard identity -------------------------------------------------

#: Name of the shard this process hosts ("" outside a sharded run). Set
#: once by the shard worker entry point; every Span and Trace created
#: afterwards is stamped with it, so spans arriving over the wire say
#: which process's clock their timestamps belong to.
_process_shard = ""


def set_process_shard(name: str) -> None:
    global _process_shard
    _process_shard = name


def process_shard() -> str:
    return _process_shard


# -- the active-trace context (exemplar support) ---------------------------

_active = threading.local()


def current_trace() -> Optional["Trace"]:
    """The trace the calling thread is working under, or None.

    Set by :func:`activate_trace` around publisher interception and
    subscriber message processing; read by ``Histogram.record`` when an
    exemplar threshold is armed."""
    return getattr(_active, "trace", None)


@contextmanager
def activate_trace(trace: Optional["Trace"]):
    """Make ``trace`` the thread's current trace for the block (no-op
    context when ``trace`` is None)."""
    previous = getattr(_active, "trace", None)
    _active.trace = trace
    try:
        yield trace
    finally:
        _active.trace = previous


_trace_ids = itertools.count(1)


class Span:
    """One timed pipeline stage of one message."""

    __slots__ = ("stage", "start", "duration", "shard")

    def __init__(
        self,
        stage: str,
        start: float,
        duration: float,
        shard: Optional[str] = None,
    ) -> None:
        self.stage = stage
        self.start = start
        self.duration = duration
        #: Which process recorded the span (its clock domain). Stamped
        #: from the process shard by default; wire deserialization
        #: preserves whatever the recording process said.
        self.shard = _process_shard if shard is None else shard

    def to_dict(self) -> Dict[str, Any]:
        out = {"stage": self.stage, "start": self.start, "duration": self.duration}
        if self.shard:
            out["shard"] = self.shard
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            data["stage"], data["start"], data["duration"],
            shard=data.get("shard", ""),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.stage} {self.duration * 1000:.3f}ms>"


class Trace:
    """Per-message span collection (JSON-serialisable)."""

    def __init__(
        self,
        app: str = "",
        spans: Optional[List[Span]] = None,
        marks: Optional[Dict[str, float]] = None,
        trace_id: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        self.app = app
        self.spans: List[Span] = list(spans or [])
        self.marks: Dict[str, float] = dict(marks or {})
        #: Shard the trace was born on ("" outside sharded runs). Rides
        #: the wire so a receiving shard knows who started the trace.
        self.origin = _process_shard if origin is None else origin
        #: Stable identity: standalone traces (audits) get a process-local
        #: serial; traces that attach to a message adopt the message uid,
        #: so an exemplar links straight to the offending message.
        self.trace_id = trace_id if trace_id is not None else f"t{next(_trace_ids)}"

    def add(self, stage: str, start: float, duration: float) -> None:
        self.spans.append(Span(stage, start, duration))

    def mark(self, name: str, at: Optional[float] = None) -> None:
        self.marks[name] = trace_now() if at is None else at

    def fork(self) -> "Trace":
        """An independent continuation: what the wire round trip of one
        delivery yields (spans are never modified once recorded)."""
        return Trace(self.app, self.spans, self.marks, self.trace_id, self.origin)

    def stages(self) -> List[str]:
        return [span.stage for span in self.spans]

    def duration(self, stage: str) -> Optional[float]:
        """Total duration of every span of ``stage`` (None if absent)."""
        matching = [s.duration for s in self.spans if s.stage == stage]
        if not matching:
            return None
        return sum(matching)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "trace_id": self.trace_id,
            "app": self.app,
            "spans": [span.to_dict() for span in self.spans],
            "marks": self.marks,
        }
        if self.origin:
            out["origin"] = self.origin
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Trace":
        return cls(
            app=data.get("app", ""),
            spans=[Span.from_dict(s) for s in data.get("spans", [])],
            marks=data.get("marks", {}),
            trace_id=data.get("trace_id"),
            origin=data.get("origin", ""),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace {self.trace_id} app={self.app} stages={self.stages()}>"


#: Sampling decisions hash into this many buckets; rates finer than
#: 1/SAMPLE_BUCKETS round to zero.
SAMPLE_BUCKETS = 1_000_000


class SpanLog:
    """Publisher-side span collection without a :class:`Trace`.

    Duck-types ``Trace.add`` so the shared dependency-collection and
    version-register helpers feed it unchanged, but stores plain tuples:
    at production sampling rates almost every message turns out to be
    unsampled, and the hot path then never allocates a Trace or Span at
    all — the real objects are built at :meth:`Tracer.attach_log` time,
    only for messages that win the sampling draw.
    """

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: List[tuple] = []

    def add(self, stage: str, start: float, duration: float) -> None:
        self.spans.append((stage, start, duration))


class Tracer:
    """Per-ecosystem tracing switch and sink for finished traces.

    ``sample_rate=1.0`` (the default) traces every message. Lower rates
    make head-based decisions per message uid — ``stable`` (seeded md5-
    free CRC) so the sampled set is identical for a given (seed, rate)
    whatever thread or process asks, and a message is either traced on
    every hop or on none.
    """

    def __init__(
        self, capacity: int = 256, sample_rate: float = 1.0, seed: int = 0
    ) -> None:
        self.enabled = False
        self.sample_rate = sample_rate
        self.seed = seed
        self._finished: "deque[Trace]" = deque(maxlen=capacity)
        #: Traces this process started but whose message finished
        #: elsewhere (a forward shipped it to another shard): keyed by
        #: trace_id — a fan-out to several remote queues records once —
        #: with FIFO eviction at the same capacity as finished traces.
        self._partials: Dict[str, Trace] = {}
        self._partial_order: "deque[str]" = deque()
        self._capacity = capacity
        self._lock = threading.Lock()
        #: Finished traces are also handed here (the ecosystem points it
        #: at ``FlightRecorder.record_trace``).
        self.sink: Optional[Callable[[Trace], None]] = None

    def enable(
        self, sample_rate: Optional[float] = None, seed: Optional[int] = None
    ) -> "Tracer":
        if sample_rate is not None:
            if not 0.0 <= sample_rate <= 1.0:
                raise ValueError("sample_rate must be within [0, 1]")
            self.sample_rate = sample_rate
        if seed is not None:
            self.seed = seed
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def begin(self, app: str) -> Optional[Trace]:
        """Start a standalone trace no message carries (an audit) — None
        when tracing is off. Messages use :meth:`begin_log`."""
        if not self.enabled:
            return None
        return Trace(app=app)

    def begin_log(self) -> Optional[SpanLog]:
        """Start publisher-side span collection for one message — None
        when tracing is off. Cheaper than :meth:`begin`: the Trace is
        only materialised by :meth:`attach_log` if the uid is sampled."""
        if not self.enabled:
            return None
        return SpanLog()

    def attach_log(self, app: str, log: SpanLog, message: Any) -> Optional[Trace]:
        """Sampling decision for a :class:`SpanLog`-collected message:
        build the Trace and attach it iff the uid wins the draw."""
        if not self.sampled(message.uid):
            return None
        trace = Trace(
            app=app,
            spans=[Span(stage, start, duration)
                   for stage, start, duration in log.spans],
            trace_id=message.uid,
        )
        message.trace = trace
        return trace

    def sampled(self, uid: str) -> bool:
        """Deterministic head-based decision for one message uid."""
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        bucket = zlib.crc32(f"{self.seed}:{uid}".encode("utf-8")) % SAMPLE_BUCKETS
        return bucket < int(rate * SAMPLE_BUCKETS)

    def record(self, trace: Trace) -> None:
        """A subscriber finished applying a traced message."""
        with self._lock:
            self._finished.append(trace)
        if self.sink is not None:
            self.sink(trace)

    def record_partial(self, trace: Trace) -> None:
        """The publisher side of a forwarded message: the trace left on
        the wire, but this process keeps its own spans (intercept, route,
        forward) so ``trace_fetch`` can serve the origin half."""
        with self._lock:
            if trace.trace_id not in self._partials:
                self._partial_order.append(trace.trace_id)
                while len(self._partial_order) > self._capacity:
                    self._partials.pop(self._partial_order.popleft(), None)
            self._partials[trace.trace_id] = trace

    def partials(self) -> List[Trace]:
        with self._lock:
            return [self._partials[tid] for tid in self._partial_order
                    if tid in self._partials]

    def finished(self) -> List[Trace]:
        with self._lock:
            return list(self._finished)

    def last(self) -> Optional[Trace]:
        with self._lock:
            return self._finished[-1] if self._finished else None

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._partials.clear()
            self._partial_order.clear()


def format_trace(trace: Trace) -> List[str]:
    """Render one finished trace as aligned per-stage lines."""
    lines = [f"trace of one {trace.app!r} message:"]
    order = {stage: i for i, stage in enumerate(PIPELINE_STAGES)}
    for span in sorted(trace.spans, key=lambda s: (order.get(s.stage, 99), s.start)):
        lines.append(f"  {span.stage:<28} {span.duration * 1000:9.3f} ms")
    total = sum(span.duration for span in trace.spans)
    lines.append(f"  {'total (sum of spans)':<28} {total * 1000:9.3f} ms")
    return lines
