"""Concurrent stress test: registry counters must reconcile exactly.

4 publisher threads x 125 creates flow through the broker to a threaded
subscriber pool (plus a probe queue that doubles the fan-out), with
injected message loss and injected at-least-once redeliveries. At the
end, the central registry's counters must balance to the message:

    published * fanout == routed + dropped
    processed + duplicates + gave_up == delivered (acked)
    no double-apply (row count == distinct applied creates)
"""

import threading

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.runtime.workers import SubscriberWorkerPool

PUBLISHER_THREADS = 4
CREATES_PER_THREAD = 125
TOTAL = PUBLISHER_THREADS * CREATES_PER_THREAD
DROPPED = 7
REDELIVERIES = 50


def build(eco):
    eco.service("pub", database=MongoLike("pub-db"), version_store_shards=4)
    eco.service("sub", database=PostgresLike("sub-db"), version_store_shards=4)
    _, pub, sub, Note = build_replicated_pair(eco, {"body": str}, "Note")
    return pub, sub, Note, sub.registry["Note"]


class TestRegistryReconciliation:
    def test_counters_reconcile_under_concurrency(self):
        eco = Ecosystem()
        pub, sub, Note, SubNote = build(eco)
        # Probe queue: captures wire copies for redelivery injection and
        # doubles the broker fan-out (fanout = 2).
        probe = eco.broker.bind("probe", "pub")
        eco.broker.drop_next(DROPPED)
        errors = []

        def publisher_thread(k):
            try:
                for i in range(CREATES_PER_THREAD):
                    Note.create(body=f"{k}-{i}")
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        with SubscriberWorkerPool(sub, workers=6, wait_timeout=0.2) as pool:
            threads = [
                threading.Thread(target=publisher_thread, args=(k,))
                for k in range(PUBLISHER_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert pool.wait_until_idle(timeout=30)

            # Phase 2: inject at-least-once redeliveries — wire copies of
            # already-applied messages land on the subscriber queue again
            # (same uid, fresh wire copy, exactly what a broker redelivery
            # after a missed ack looks like).
            captured = []
            while True:
                message = probe.pop()
                if message is None:
                    break
                probe.ack(message)
                captured.append(message)
            sub_queue = sub.subscriber.queue
            store_before = eco.metrics.value("subscriber.sub.processed")
            for message in captured[:REDELIVERIES]:
                sub_queue.publish(message.delivery())
            assert pool.wait_until_idle(timeout=30)
            gave_up = eco.metrics.value("workers.sub.gave_up")

        assert errors == []
        metrics = eco.metrics

        # Every published message was either routed or dropped, per queue.
        published = metrics.value("publisher.pub.published")
        assert published == TOTAL
        fanout = 2  # sub + probe
        assert (
            metrics.value("broker.routed") + metrics.value("broker.dropped")
            == published * fanout
        )
        assert metrics.value("broker.dropped") == DROPPED

        # Everything delivered to the subscriber was acked, and every ack
        # is accounted for as processed, duplicate or given up.
        sub_queue = sub.subscriber.queue
        assert len(sub_queue) == 0 and sub_queue.unacked_count == 0
        processed = metrics.value("subscriber.sub.processed")
        duplicates = metrics.value("subscriber.sub.duplicates")
        assert processed + duplicates + gave_up == sub_queue.total_acked
        assert sub_queue.total_acked == sub_queue.total_published

        # Every injected redelivery either deduplicated (its original was
        # applied) or recovered a message the broker dropped on the sub
        # queue — at-least-once semantics, with no third outcome.
        recovered = processed - store_before
        assert recovered >= 0
        assert duplicates + recovered == REDELIVERIES

        # No double-apply: one row per processed create (creates are
        # independent objects, so every processed message is distinct),
        # and the engine saw exactly that many ORM writes.
        assert SubNote.count() == processed
        assert metrics.value("orm.sub.writes") == processed
        # The subscriber bumped each applied message's single dependency
        # exactly once — duplicates never touch the version store.
        assert metrics.value("versionstore.sub.applied") == processed

        # The snapshot surface exposes the whole reconciliation.
        snap = metrics.snapshot()
        for name in (
            "broker.routed",
            "broker.dropped",
            "publisher.pub.published",
            "subscriber.sub.processed",
            "subscriber.sub.duplicates",
            "workers.sub.gave_up",
        ):
            assert name in snap
