"""``SubscriberQueue.defer`` and the worker pools' stall rotation.

``nack`` returns a message to the *front* of the queue — right for
apply errors (retry where you stood), fatal for pure dependency stalls:
when the predecessor of a causal chain sits *behind* the nacked message,
front-requeue re-pops the same message forever while the predecessor
starves (the worker-pool livelock this rotation fixed). ``defer``
returns the message to the *back*, so every queued message surfaces
within one queue revolution.
"""

from __future__ import annotations

import threading
from unittest import mock

from repro.apps import build_replicated_pair
from repro.broker.message import Message
from repro.broker.queue import SubscriberQueue
from repro.core import Ecosystem
from repro.core.subscriber import SynapseSubscriber
from repro.runtime.flow import FlowConfig
from repro.runtime.workers import SubscriberWorkerPool
from repro.versionstore.store import SubscriberVersionStore


def make_message(seq):
    return Message(
        app="pub", operations=[], dependencies={}, published_at=0.0,
        uid=f"pub:{seq}",
    )


class TestQueueDefer:
    def test_defer_returns_message_to_the_back(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(1))
        queue.publish(make_message(2))
        first = queue.pop(timeout=0)
        assert first.uid == "pub:1"
        queue.defer(first)
        assert queue.pop(timeout=0).uid == "pub:2"
        assert queue.pop(timeout=0).uid == "pub:1"

    def test_nack_still_returns_message_to_the_front(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(1))
        queue.publish(make_message(2))
        first = queue.pop(timeout=0)
        queue.nack(first)
        assert queue.pop(timeout=0).uid == "pub:1"

    def test_defer_clears_the_unacked_slot(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(1))
        message = queue.pop(timeout=0)
        assert queue.unacked_count == 1
        queue.defer(message)
        assert queue.unacked_count == 0
        assert len(queue) == 1

    def test_defer_of_unknown_delivery_is_tolerated(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(1))
        message = queue.pop(timeout=0)
        queue.ack(message)
        queue.defer(message)  # stale defer after an ack: no-op
        assert len(queue) == 0
        assert queue.unacked_count == 0

    def test_defer_on_decommissioned_queue_is_tolerated(self):
        queue = SubscriberQueue("sub", max_size=2)
        queue.publish(make_message(1))
        message = queue.pop(timeout=0)
        for seq in range(2, 6):
            queue.publish(make_message(seq))  # past the kill cliff
        assert queue.decommissioned
        queue.defer(message)  # must not raise, must not resurrect


class TestWorkerStallRotation:
    def _chain_ecosystem(self, **flow_kwargs):
        eco = Ecosystem()
        if flow_kwargs:
            eco.enable_flow(FlowConfig(**flow_kwargs))
        _, pub, sub, Doc = build_replicated_pair(eco, {"name": str, "score": int})
        return eco, pub, sub, Doc, sub.registry["Doc"]

    def test_deep_chain_drains_with_single_message_workers(self):
        eco, pub, sub, Doc, SubDoc = self._chain_ecosystem()
        with pub.controller():
            docs = [Doc.create(name=f"d{i}", score=i) for i in range(40)]
        pool = SubscriberWorkerPool(
            sub, workers=3, wait_timeout=0.1, max_deliveries=10_000
        )
        assert sub.subscriber.batch_limit == 1  # FLOW_OFF: one message a pop
        with pool:
            assert pool.wait_until_idle(timeout=20)
        assert eco.metrics.value("workers.sub.gave_up") == 0
        for doc in docs:
            assert SubDoc.__mapper__.find(doc.id) is not None

    def test_deep_chain_drains_with_batched_workers(self):
        """The livelock regression: a 40-deep causal chain, multiple
        batched workers, and small batches used to cycle
        pop -> dependency wait -> nack-to-front forever once the chain
        head sank behind nacked later messages. Stall rotation (defer)
        guarantees the head surfaces within one revolution."""
        eco, pub, sub, Doc, SubDoc = self._chain_ecosystem(batch_max=8)
        with pub.controller():
            docs = [Doc.create(name=f"d{i}", score=i) for i in range(40)]
        pool = SubscriberWorkerPool(
            sub, workers=3, wait_timeout=0.1, max_deliveries=10_000
        )
        assert sub.subscriber.batch_limit == 8
        with pool:
            assert pool.wait_until_idle(timeout=20)
        assert eco.metrics.value("workers.sub.gave_up") == 0
        for doc in docs:
            assert SubDoc.__mapper__.find(doc.id) is not None

    def test_first_deliveries_probe_without_blocking_under_flow(self):
        """Chain-head discovery: the head of a causal chain sits behind
        its followers. A batch made only of first deliveries must probe
        and defer, never park in ``wait_satisfied`` — with flow on, the
        pool used to block ``wait_timeout`` on every such batch, so
        finding the head cost one timeout per pop."""
        eco, pub, sub, Doc, SubDoc = self._chain_ecosystem(batch_max=4)
        with pub.controller():
            docs = [Doc.create(name=f"d{i}", score=i) for i in range(12)]
        queue = sub.subscriber.queue
        queue._items.rotate(-1)  # bury the chain head at the back
        assert queue.peek_all()[-1].seq == min(m.seq for m in queue.peek_all())

        batch_is_first = threading.local()
        blocked_on_first = []
        real_batch = SynapseSubscriber.process_batch
        real_wait = SubscriberVersionStore.wait_satisfied

        def process_batch(self, messages, wait_timeout=0.0):
            batch_is_first.value = all(m.delivery_count == 1 for m in messages)
            return real_batch(self, messages, wait_timeout)

        def wait_satisfied(self, dependencies, timeout):
            if timeout > 0 and batch_is_first.value:
                blocked_on_first.append(timeout)
            return real_wait(self, dependencies, timeout)

        with mock.patch.object(SynapseSubscriber, "process_batch", process_batch), \
                mock.patch.object(SubscriberVersionStore, "wait_satisfied", wait_satisfied):
            pool = SubscriberWorkerPool(
                sub, workers=2, wait_timeout=0.1, max_deliveries=10_000
            )
            assert sub.subscriber.batch_limit == 4
            with pool:
                assert pool.wait_until_idle(timeout=20)
        assert blocked_on_first == []
        assert eco.metrics.value("workers.sub.gave_up") == 0
        for doc in docs:
            assert SubDoc.__mapper__.find(doc.id) is not None
