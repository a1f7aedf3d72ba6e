"""Discrete-event simulation of the publisher->broker->subscriber pipeline.

The paper's scaling experiments (Figs 13b/13c) ran up to 400 publisher
and 400 subscriber workers on a thousand AWS instances; on one machine
the dependency-wait structure — which is what separates global, causal
and weak delivery — can be reproduced exactly with a discrete-event
simulator driven by *real* messages captured from the real publisher.

The model: M messages arrive at the subscriber (optionally gated by a
publisher stage); N subscriber workers each take a ready message (every
dependency satisfied), hold it for its service time (callback cost plus
DB write), then complete it, incrementing the dependency counters
exactly as :class:`SubscriberVersionStore` would. A DB "ceiling" models
engine saturation as a cap on concurrent in-engine operations.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class SimMessage:
    """One write message as the simulator sees it."""

    seq: int
    #: dependency -> required version (subscriber-side wait rule).
    deps: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_message(cls, message, mode: str = "causal") -> "SimMessage":
        """Project a real broker message into the simulator, applying the
        subscriber-side mode weakening of §4.2."""
        from repro.core.delivery import effective_dependencies
        from repro.core.dependencies import dep_name
        from repro.core.subscriber import table_for_type

        object_deps = set()
        for op in message.operations:
            table = table_for_type(op["types"][0])
            object_deps.add(dep_name(message.app, table, op["id"]))
        deps = effective_dependencies(message.dependencies, mode, object_deps)
        if mode == "weak":
            # Weak subscribers never wait; staleness discard does not
            # change throughput, so the projection drops all constraints.
            deps = {}
        return cls(seq=message.seq, deps=dict(deps))


@dataclass
class DBCeiling:
    """Engine saturation model: at most ``capacity`` concurrent in-engine
    operations, each holding the engine for ``op_time`` seconds."""

    capacity: int
    op_time: float


@dataclass
class SimResult:
    total_time: float
    completed: int
    throughput: float
    #: mean time a message waited for dependencies (queueing excluded).
    mean_dep_wait: float
    #: per-message completion times, ascending.
    completion_times: List[float] = field(default_factory=list)


def simulate_subscriber(
    messages: Sequence[SimMessage],
    workers: int,
    service_time: float,
    db: Optional[DBCeiling] = None,
    arrival_times: Optional[Sequence[float]] = None,
    metrics=None,
) -> SimResult:
    """Simulate N subscriber workers applying ``messages``.

    ``arrival_times`` (parallel to ``messages``) gates when each message
    reaches the queue; by default everything is available at t=0 (a
    saturated backlog, the stress-test setup of §6.3).

    ``metrics`` (a :class:`repro.runtime.metrics.MetricsRegistry`) mirrors
    the simulated run into ``sim.dep_wait`` / ``sim.completed`` so
    simulated and real pipelines report through the same surface.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    msgs = sorted(messages, key=lambda m: m.seq)
    arrivals = list(arrival_times) if arrival_times is not None else [0.0] * len(msgs)
    if len(arrivals) != len(msgs):
        raise ValueError("arrival_times must match messages")

    counters: Dict[str, int] = {}
    free_workers = workers
    # The engine ceiling: `capacity` slots, each held only for the
    # engine-op portion of a message (the callback runs outside the DB).
    db_slots: List[float] = [0.0] * db.capacity if db is not None else []

    waiting: List[Tuple[float, SimMessage]] = sorted(
        zip(arrivals, msgs), key=lambda pair: (pair[0], pair[1].seq)
    )
    blocked: List[Tuple[float, SimMessage]] = []
    # (completion_time, tie, message) heap
    in_flight: List[Tuple[float, int, SimMessage]] = []
    tie = itertools.count()
    now = 0.0
    completed = 0
    dep_wait_total = 0.0
    completions: List[float] = []
    idx = 0  # next not-yet-arrived message
    if db is not None:
        heapq.heapify(db_slots)

    def satisfied(m: SimMessage) -> bool:
        return all(counters.get(d, 0) >= v for d, v in m.deps.items())

    def start(m: SimMessage) -> float:
        """Worker takes the message now; returns its completion time."""
        callback_done = now + service_time
        if db is None:
            return callback_done
        slot_free = heapq.heappop(db_slots)
        db_start = max(callback_done, slot_free)
        db_end = db_start + db.op_time
        heapq.heappush(db_slots, db_end)
        return db_end

    while completed < len(msgs):
        while idx < len(waiting) and waiting[idx][0] <= now:
            blocked.append(waiting[idx])
            idx += 1
        # Start every ready message that can get a worker.
        progressed = True
        while progressed and free_workers > 0:
            progressed = False
            for i, (arrived, m) in enumerate(blocked):
                if satisfied(m):
                    blocked.pop(i)
                    free_workers -= 1
                    dep_wait_total += now - arrived
                    heapq.heappush(in_flight, (start(m), next(tie), m))
                    progressed = True
                    break
        # Advance time: to the next completion or the next arrival.
        next_completion = in_flight[0][0] if in_flight else None
        next_arrival = waiting[idx][0] if idx < len(waiting) else None
        if next_completion is None and next_arrival is None:
            # Deadlock: blocked messages whose deps can never be met.
            break
        if next_completion is not None and (
            next_arrival is None or next_completion <= next_arrival
        ):
            now, _, done = heapq.heappop(in_flight)
            free_workers += 1
            for dep in done.deps:
                counters[dep] = counters.get(dep, 0) + 1
            completed += 1
            completions.append(now)
        else:
            now = next_arrival

    total_time = max(now, 1e-12)
    if metrics is not None:
        metrics.counter("sim.completed").increment(completed)
        if completed:
            metrics.histogram("sim.dep_wait").record(dep_wait_total / completed)
    return SimResult(
        total_time=total_time,
        completed=completed,
        throughput=completed / total_time,
        mean_dep_wait=dep_wait_total / completed if completed else 0.0,
        completion_times=completions,
    )


def simulate_pipeline(
    messages: Sequence[SimMessage],
    workers: int,
    publish_time: float,
    subscribe_time: float,
    publisher_db: Optional[DBCeiling] = None,
    subscriber_db: Optional[DBCeiling] = None,
) -> SimResult:
    """Two-stage pipeline: N publisher workers emit the messages (gated
    by the publisher DB ceiling), N subscriber workers apply them (gated
    by dependencies and the subscriber DB ceiling) — the Fig 13(b) setup
    with identical worker counts on both sides."""
    # Stage 1: publishers are dependency-free; their completion times
    # become the subscriber-side arrival times (FIFO: earliest publishes
    # carry the earliest sequence numbers).
    stage1 = simulate_subscriber(
        [SimMessage(seq=m.seq) for m in messages],
        workers=workers,
        service_time=publish_time,
        db=publisher_db,
    )
    ordered = sorted(messages, key=lambda m: m.seq)
    arrivals = sorted(stage1.completion_times)
    result = simulate_subscriber(
        ordered,
        workers=workers,
        service_time=subscribe_time,
        db=subscriber_db,
        arrival_times=arrivals,
    )
    return SimResult(
        total_time=max(result.total_time, stage1.total_time),
        completed=result.completed,
        throughput=result.completed / max(result.total_time, stage1.total_time),
        mean_dep_wait=result.mean_dep_wait,
    )


def capture_messages(ecosystem, publisher_app: str, probe_name: str = "sim-probe"):
    """Bind a probe queue to a publisher and return a drainer function —
    workloads run against the *real* publisher and the simulator replays
    the real dependency structure."""
    queue = ecosystem.broker.bind(probe_name, publisher_app)

    def drain() -> List:
        out = []
        while True:
            message = queue.pop()
            if message is None:
                return out
            queue.ack(message)
            out.append(message)

    return drain
