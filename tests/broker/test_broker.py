"""Unit tests for the message broker and subscriber queues."""

import json

import pytest

from repro.broker import Broker, Message, SubscriberQueue
from repro.errors import BrokerError, QueueDecommissioned
from repro.runtime.tracing import Trace


def make_message(app="pub", op_id=1, deps=None):
    return Message(
        app=app,
        operations=[{"operation": "create", "types": ["User"], "id": op_id,
                     "attributes": {"name": "x"}}],
        dependencies=deps or {},
        published_at=0.0,
    )


class TestMessage:
    def test_json_roundtrip(self):
        msg = make_message(deps={"u1": 3})
        clone = Message.from_json(msg.to_json())
        assert clone.app == "pub"
        assert clone.dependencies == {"u1": 3}
        assert clone.operations[0]["attributes"] == {"name": "x"}
        assert clone.generation == 1

    def test_copy_is_independent(self):
        msg = make_message()
        clone = Message.from_json(msg.to_json())
        clone.operations[0]["attributes"]["name"] = "mutated"
        assert msg.operations[0]["attributes"]["name"] == "x"

    def test_non_serialisable_payload_rejected(self):
        with pytest.raises(TypeError):
            make_message(op_id=object()).to_json()


class TestQueue:
    def test_fifo_pop_ack(self):
        q = SubscriberQueue("sub")
        for i in range(3):
            q.publish(make_message(op_id=i))
        seen = []
        while True:
            msg = q.pop()
            if msg is None:
                break
            seen.append(msg.operations[0]["id"])
            q.ack(msg)
        assert seen == [0, 1, 2]
        assert q.total_acked == 3

    def test_pop_empty_returns_none(self):
        assert SubscriberQueue("sub").pop() is None

    def test_nack_redelivers_at_front(self):
        q = SubscriberQueue("sub")
        q.publish(make_message(op_id=1))
        q.publish(make_message(op_id=2))
        first = q.pop()
        q.nack(first)
        again = q.pop()
        assert again.operations[0]["id"] == 1
        assert again.delivery_count == 2

    def test_ack_unknown_rejected(self):
        q = SubscriberQueue("sub")
        q.publish(make_message())
        msg = q.pop()
        q.ack(msg)
        with pytest.raises(BrokerError):
            q.ack(msg)

    def test_requeue_unacked(self):
        q = SubscriberQueue("sub")
        q.publish(make_message(op_id=1))
        q.publish(make_message(op_id=2))
        q.pop()
        q.pop()
        assert q.requeue_unacked() == 2
        assert q.pop().operations[0]["id"] == 1

    def test_decommission_on_overflow(self):
        q = SubscriberQueue("sub", max_size=2)
        for i in range(3):
            q.publish(make_message(op_id=i))
        assert q.decommissioned
        assert len(q) == 0
        with pytest.raises(QueueDecommissioned):
            q.pop()
        # Further publishes are dropped silently.
        q.publish(make_message(op_id=9))
        assert len(q) == 0

    def test_recommission(self):
        q = SubscriberQueue("sub", max_size=1)
        q.publish(make_message(op_id=1))
        q.publish(make_message(op_id=2))
        assert q.decommissioned
        q.recommission()
        q.publish(make_message(op_id=3))
        assert q.pop().operations[0]["id"] == 3


class TestBrokerRouting:
    def test_fanout_to_bound_subscribers(self):
        broker = Broker()
        q1 = broker.bind("sub1", "pub")
        q2 = broker.bind("sub2", "pub")
        broker.bind("sub3", "other")
        broker.publish(make_message(app="pub"))
        assert len(q1) == 1 and len(q2) == 1
        assert len(broker.queue_for("sub3")) == 0

    def test_subscriber_receives_from_multiple_publishers(self):
        broker = Broker()
        q = broker.bind("sub", "pub1")
        broker.bind("sub", "pub2")
        broker.publish(make_message(app="pub1"))
        broker.publish(make_message(app="pub2"))
        assert len(q) == 2

    def test_copies_are_isolated_between_queues(self):
        """Each queue owns its delivery — delivery state, trace, and the
        one sanctioned body change (``rewrite``) — and shares the
        immutable body and its encoded form with the others."""
        broker = Broker()
        q1 = broker.bind("sub1", "pub")
        q2 = broker.bind("sub2", "pub")
        published = make_message(app="pub", deps={"u1": 3})
        published.trace = Trace(app="pub", trace_id=published.uid)
        published.trace.add("publisher.intercept", 1.0, 0.5)
        broker.publish(published)
        m1 = q1.pop()
        (m2,) = q2.peek_all()
        assert m1.uid == m2.uid == published.uid
        assert len({published.seq, m1.seq, m2.seq}) == 3
        assert (m1.delivery_count, m2.delivery_count) == (1, 0)
        assert m1.dwell is not None and m2.dwell is None
        # The trace forks per delivery: q1's dwell span and ack never
        # reach q2's or the publisher's.
        assert m1.trace.stages().count("queue.dwell") == 1
        assert "queue.dwell" not in m2.trace.stages()
        assert published.trace.stages() == ["publisher.intercept"]
        q1.ack(m1)
        assert m1.trace is None and m2.trace is not None
        # Body containers and the encoded body are shared, not parsed.
        assert m1.operations is m2.operations is published.operations
        assert m1.dependencies is published.dependencies
        assert m1.body() is m2.body() is published.body()
        # Coalescing rewrites one delivery; the others keep theirs.
        m1.rewrite(
            operations=[dict(m1.operations[0], attributes={"name": "merged"})],
            dependencies={"u1": 4},
            external_dependencies={},
            increments={"u1": 2},
            coalesced_uids=["pub:99"],
        )
        assert m2.operations[0]["attributes"] == {"name": "x"}
        assert m2.dependencies == {"u1": 3} and m2.increments is None
        assert m2.body() is published.body() and m1.body() != m2.body()
        assert json.loads(m1.body())["coalesced_uids"] == ["pub:99"]

    def test_backlog_and_subscribers_of(self):
        broker = Broker()
        broker.bind("sub1", "pub")
        broker.bind("sub2", "pub")
        broker.publish(make_message(app="pub"))
        assert broker.backlog() == {"sub1": 1, "sub2": 1}
        assert broker.subscribers_of("pub") == ["sub1", "sub2"]


class TestPublisherMetadata:
    def test_publication_registry(self):
        broker = Broker()
        broker.register_publication("pub", "User", ["name"], "causal")
        broker.register_publication("pub", "User", ["email"], "causal")
        assert broker.published_fields("pub", "User") == ["email", "name"]
        assert broker.publisher_mode("pub") == "causal"
        assert broker.published_models("pub") == ["User"]
        assert broker.published_fields("pub", "Nope") is None

    def test_validate_binding(self):
        broker = Broker()
        with pytest.raises(BrokerError):
            broker.validate_binding("sub", "ghost")
        broker.register_publication("ghost", "User", ["name"], "weak")
        broker.validate_binding("sub", "ghost")


class TestFaultInjection:
    def test_drop_next(self):
        broker = Broker()
        q = broker.bind("sub", "pub")
        broker.drop_next(1)
        broker.publish(make_message(app="pub"))
        broker.publish(make_message(app="pub"))
        assert len(q) == 1
        assert broker.metrics.value("broker.dropped") == 1

    def test_loss_probability_deterministic_with_seed(self):
        broker = Broker(seed=42)
        q = broker.bind("sub", "pub")
        broker.loss_probability = 0.5
        for i in range(100):
            broker.publish(make_message(app="pub", op_id=i))
        assert 20 < len(q) < 80
        assert len(q) + broker.metrics.value("broker.dropped") == 100


class TestQueueStats:
    def test_stats_track_queued_and_in_flight(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(op_id=1))
        queue.publish(make_message(op_id=2))
        assert queue.stats() == {
            "queued": 2, "in_flight": 0, "published": 2, "acked": 0,
            "decommissioned": 0,
        }
        delivery = queue.pop()
        stats = queue.stats()
        assert (stats["queued"], stats["in_flight"]) == (1, 1)
        queue.ack(delivery)
        stats = queue.stats()
        assert (stats["in_flight"], stats["acked"]) == (0, 1)

    def test_broker_in_flight_view(self):
        broker = Broker()
        q = broker.bind("sub", "pub")
        broker.publish(make_message(app="pub"))
        assert broker.in_flight() == {"sub": 0}
        q.pop()
        assert broker.in_flight() == {"sub": 1}

    def test_broker_queue_stats_filter(self):
        broker = Broker()
        broker.bind("sub1", "pub")
        broker.bind("sub2", "pub")
        broker.publish(make_message(app="pub"))
        all_stats = broker.queue_stats()
        assert set(all_stats) == {"sub1", "sub2"}
        only = broker.queue_stats("sub1")
        assert set(only) == {"sub1"}
        assert only["sub1"]["queued"] == 1
        assert broker.queue_stats("nobody") == {}

    def test_stats_show_decommission(self):
        broker = Broker(default_queue_limit=2)
        broker.bind("sub", "pub")
        for i in range(3):
            broker.publish(make_message(app="pub", op_id=i))
        stats = broker.queue_stats("sub")["sub"]
        assert stats["decommissioned"] == 1
        assert stats["queued"] == 0  # backlog was dropped with the queue


class TestReseed:
    def test_reseed_reproduces_loss_sequence(self):
        """Chaos runs must be replayable from any point: after reseed,
        the same publishes see the same drops."""
        def run(broker):
            broker.loss_probability = 0.5
            q = broker.bind("sub", "pub") if "sub" not in broker.backlog() \
                else broker.queue_for("sub")
            survived = []
            for i in range(50):
                before = len(q)
                broker.publish(make_message(app="pub", op_id=i))
                survived.append(len(q) > before)
            return survived

        first = Broker(seed=7)
        pattern_a = run(first)
        first.reseed(7)
        pattern_b = run(first)
        assert pattern_a == pattern_b

    def test_reseed_differs_across_seeds(self):
        broker = Broker(seed=1)
        broker.loss_probability = 0.5
        broker.bind("sub", "pub")
        draws_a = [broker._should_drop() for _ in range(64)]
        broker.reseed(2)
        draws_b = [broker._should_drop() for _ in range(64)]
        broker.reseed(1)
        draws_c = [broker._should_drop() for _ in range(64)]
        assert draws_a == draws_c
        assert draws_a != draws_b
