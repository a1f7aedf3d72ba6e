"""Update-propagation delay distribution (the §1/§6.1 claim of "modest
update propagation delays", quantified end to end).

One publisher, three concurrent threaded subscribers; each published
object carries its publish timestamp, and each subscriber records its
apply timestamp in an ``after_save`` callback. Reports the per-subscriber
latency distribution.
"""

from __future__ import annotations

import time

from benchmarks.common import emit, format_table
from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.columnar import CassandraLike
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model, after_save
from repro.runtime.metrics import Histogram
from repro.runtime.workers import SubscriberWorkerPool

OBJECTS = 300


def run_propagation():
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["sent_at"])
    class Event(Model):
        sent_at = Field(float)

    latencies = {}
    subscribers = []
    for name, db in [
        ("sub-sql", PostgresLike("sql-db")),
        ("sub-doc", MongoLike("doc-db")),
        ("sub-col", CassandraLike("col-db")),
    ]:
        service = eco.service(name, database=db)
        histogram = Histogram()
        latencies[name] = histogram

        @service.model(subscribe={"from": "pub", "fields": ["sent_at"]},
                       name="Event")
        class SubEvent(Model):
            sent_at = Field(float)

            @after_save
            def record(self, _h=histogram):
                _h.record(time.time() - self.sent_at)

        subscribers.append(service)

    pools = [SubscriberWorkerPool(s, workers=2).start() for s in subscribers]
    try:
        for _ in range(OBJECTS):
            Event.create(sent_at=time.time())
        for pool in pools:
            assert pool.wait_until_idle(timeout=30)
    finally:
        for pool in pools:
            pool.stop()
    return latencies


def test_propagation_latency(benchmark):
    latencies = run_propagation()
    rows = []
    for name, histogram in latencies.items():
        assert histogram.count == OBJECTS
        rows.append([
            name,
            histogram.count,
            f"{histogram.mean() * 1000:.3f}",
            f"{histogram.percentile(50) * 1000:.3f}",
            f"{histogram.percentile(99) * 1000:.3f}",
        ])
    emit(format_table(
        "Update propagation latency, publisher -> 3 threaded subscribers",
        ["subscriber", "updates", "mean ms", "p50 ms", "p99 ms"],
        rows,
    ))
    # "Modest propagation delays": p99 under 250 ms even on one busy box.
    for name, histogram in latencies.items():
        assert histogram.percentile(99) < 0.25, name

    benchmark(lambda: None)  # measurement happens above; kernel is a no-op


def test_single_hop_latency_kernel(benchmark):
    """Benchmark kernel: one publish + one synchronous apply."""
    eco, pub, sub, Event = build_replicated_pair(fields={"x": int}, model="Event")
    def hop():
        Event.create(x=1)
        sub.subscriber.drain()

    benchmark(hop)
