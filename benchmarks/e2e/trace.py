"""Per-layer tracing from outside the program.

``install()`` wraps the layers' public callables at class level; each
call records one span ``(name, start, end, parent, op, n)`` into an
in-memory list. Nothing is written anywhere until the traced pass has
ended. A layer's *self time* is its spans' duration minus the part their
child spans cover, so the per-layer numbers add up to (at most) the wall
time of the pass; what is left over is reported as ``unattributed_us``.

The program's own tracer (``repro.runtime.tracing``) stays off and
untouched; these spans exist only in the traced pass of a benchmark run.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(name, start, end, parent index in the same thread's list or -1,
#: op id — a message uid once one exists, else the driver's op index —,
#: n — a size or count read off the call, 0 when the layer has none)``.
Span = Tuple[str, float, float, int, Any, float]


class SpanRecorder:
    """Owns the span columns (one set per thread) and the installed
    wrappers.

    Spans are kept as parallel columns of strings and numbers, not as
    one tuple each: a tuple per span is a garbage-collector-tracked
    allocation, and forty of those per op trigger collections over the
    whole replica heap that cost more than the calls being traced.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        #: The driver's current op index; root spans without a message
        #: uid take it as their op id.
        self.op: Any = None
        #: Per thread: (names, starts, ends, parents, ops, ns, open stack).
        self.threads: List[Tuple[list, ...]] = []
        self._tls = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        uid_of: Optional[Callable[[tuple], Any]] = None,
        size_of: Optional[Callable[[tuple, Any], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class's method, classmethod or a
        module's function) with a span-recording wrapper."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        orig = raw.__func__ if is_classmethod else raw
        clock, tls, recorder = self.clock, self._tls, self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                names, starts, ends, parents, ops, ns, stack = tls.columns
            except AttributeError:
                tls.columns = columns = ([], [], [], [], [], [], [])
                recorder.threads.append(columns)
                names, starts, ends, parents, ops, ns, stack = columns
            index = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            ops.append(uid_of(args) if uid_of is not None else (
                recorder.op if parent < 0 else None))
            starts.append(0.0)
            ends.append(0.0)
            ns.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = orig(*args, **kwargs)
                ends[index] = clock()
                if size_of is not None:
                    ns[index] = size_of(args, result)
                return result
            except BaseException:
                ends[index] = clock()
                raise
            finally:
                starts[index] = start
                stack.pop()

        wrapper.__name__ = getattr(orig, "__name__", attr)
        wrapper.__wrapped__ = orig
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def clear(self) -> None:
        """Forget the spans recorded so far (between calls only)."""
        for columns in self.threads:
            for column in columns:
                del column[:]

    def spans(self) -> List[List[Span]]:
        """Completed spans, one list per thread that recorded any."""
        return [
            [span for span in zip(*columns[:6]) if span[2] > 0.0]
            for columns in self.threads
        ]


def _message_uid(position: int) -> Callable[[tuple], Any]:
    return lambda args: args[position].uid


def install(clock: Callable[[], float]) -> SpanRecorder:
    """Wrap every layer boundary the per-layer table names."""
    from repro.broker.broker import Broker
    from repro.broker.message import Message
    from repro.broker.queue import SubscriberQueue
    from repro.cdc.outbox import RawSession
    from repro.cdc.poller import CdcPoller
    from repro.core.publisher import SynapsePublisher
    from repro.core.subscriber import SynapseSubscriber
    from repro.durability import wal
    from repro.durability.manager import DurabilityManager
    from repro.orm.engine_mappers import (
        ColumnarMapper,
        DocumentMapper,
        RelationalMapper,
    )
    from repro.orm.model import Model
    from repro.runtime.flow.admission import QueueFlow
    from repro.runtime.transport.process import PeerLink
    from repro.versionstore.store import (
        PublisherVersionStore,
        SubscriberVersionStore,
    )
    from repro.views.cache import ReplicatedCache
    from repro.views.manager import ViewManager

    rec = SpanRecorder(clock)
    wrap = rec.wrap
    # ``orm`` and ``databases.write`` are split into publisher and
    # subscriber side when the spans are summarised, by whether a
    # ``subscriber.process`` span is among their ancestors.
    for attr in ("create", "save", "destroy"):
        wrap(Model, attr, "orm")
    for mapper in (RelationalMapper, DocumentMapper, ColumnarMapper):
        for attr in ("_do_insert", "_do_update", "_do_delete"):
            wrap(mapper, attr, "databases.write")
    wrap(SynapsePublisher, "write", "publisher.write")
    wrap(SynapsePublisher, "ingest_cdc", "cdc.ingest")
    wrap(PublisherVersionStore, "register_operation", "versionstore.register")
    wrap(SubscriberVersionStore, "satisfied", "versionstore.wait")
    wrap(SubscriberVersionStore, "wait_satisfied", "versionstore.wait")
    wrap(SubscriberVersionStore, "apply_counts", "versionstore.apply")
    wrap(Message, "to_json", "message.encode",
         size_of=lambda args, result: len(result))
    wrap(Message, "from_json", "message.decode")
    wrap(Broker, "publish", "broker.publish", uid_of=_message_uid(1),
         size_of=lambda args, result: len(args[1].dependencies))
    wrap(Broker, "deliver_remote", "broker.deliver_remote")
    wrap(SubscriberQueue, "publish", "queue.publish", uid_of=_message_uid(1))
    wrap(SubscriberQueue, "pop", "queue.pop")
    wrap(SubscriberQueue, "pop_many", "queue.pop")
    wrap(SubscriberQueue, "ack", "queue.ack", uid_of=_message_uid(1))
    wrap(QueueFlow, "admit", "flow.admit")
    wrap(QueueFlow, "coalesce", "flow.coalesce")
    for attr in sorted(vars(DurabilityManager)):
        if attr.startswith("log_"):
            wrap(DurabilityManager, attr, "durability.log")
    wrap(wal, "encode_record", "wal.encode",
         size_of=lambda args, result: len(result))
    wrap(wal.SegmentedWAL, "append", "wal.append")
    wrap(PeerLink, "send_data", "transport.send",
         size_of=lambda args, result: len(args[2]))
    for attr in ("insert", "update", "delete"):
        wrap(RawSession, attr, "cdc.outbox_write")
    wrap(CdcPoller, "poll", "cdc.poll",
         size_of=lambda args, result: result)
    wrap(SynapseSubscriber, "drain", "subscriber.drain")
    # n = messages the call left unapplied (a dependency deferral).
    wrap(SynapseSubscriber, "process_message", "subscriber.process",
         uid_of=_message_uid(1),
         size_of=lambda args, result: 0 if result else 1)
    wrap(SynapseSubscriber, "process_batch", "subscriber.process",
         size_of=lambda args, result: len(result[1]))
    wrap(ViewManager, "on_applied", "views.fold")
    wrap(ViewManager, "commit_batch", "views.fold")
    wrap(ReplicatedCache, "invalidate", "cache.invalidate")
    wrap(ReplicatedCache, "write_through", "cache.invalidate")
    wrap(ReplicatedCache, "read", "cache.read")
    return rec


# ---------------------------------------------------------------------------
# Summarising spans
# ---------------------------------------------------------------------------

def span_overhead(clock: Callable[[], float], calls: int = 20000) -> float:
    """Seconds one wrapped call adds to its *parent's* interval beyond
    the child's own ``[start, end]`` — subtracted per child when self
    times are computed, so a layer with many small children is not
    charged for the bookkeeping of tracing them."""

    class Probe:
        def noop(self) -> None:
            return None

    rec = SpanRecorder(clock)
    rec.wrap(Probe, "noop", "probe")
    probe = Probe()
    start = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    wrapped = time.perf_counter() - start
    inner = sum(span[2] - span[1] for span in rec.spans()[0])
    start = time.perf_counter()
    for _ in range(calls):
        pass
    loop = time.perf_counter() - start
    return max(0.0, (wrapped - inner - loop) / calls)


#: name -> [self seconds, calls, sum of n]
Summary = Dict[str, List[float]]


def summarise(threads: List[List[Span]], overhead: float) -> Summary:
    """Self time, call count and summed ``n`` per resolved span name."""
    out: Summary = {}
    for spans in threads:
        child_time = [0.0] * len(spans)
        under_subscriber = [False] * len(spans)
        for index, (name, start, end, parent, _op, _n) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += (end - start) + overhead
                under_subscriber[index] = under_subscriber[parent]
            if name == "subscriber.process":
                under_subscriber[index] = True
        for index, (name, start, end, parent, _op, n) in enumerate(spans):
            if name == "orm":
                name = "orm.apply" if under_subscriber[index] else "orm.intercept"
            elif name == "databases.write":
                name = ("databases.sub_write" if under_subscriber[index]
                        else "databases.pub_write")
            row = out.setdefault(name, [0.0, 0, 0.0])
            row[0] += max(0.0, (end - start) - child_time[index])
            row[1] += 1
            row[2] += n
    return out


def merge(summaries: List[Summary]) -> Summary:
    out: Summary = {}
    for summary in summaries:
        for name, (self_s, calls, n) in summary.items():
            row = out.setdefault(name, [0.0, 0, 0.0])
            row[0] += self_s
            row[1] += calls
            row[2] += n
    return out


def starts(threads: List[List[Span]], name: str) -> List[float]:
    """Start times of every span called ``name``, in time order."""
    return sorted(s[1] for spans in threads for s in spans if s[0] == name)
