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
        )
        assert m2.operations[0]["attributes"] == {"name": "x"}
        assert m2.dependencies == {"u1": 3} and m2.increments is None
        assert m2.body() is published.body() and m1.body() != m2.body()
        assert json.loads(m1.body())["increments"] == {"u1": 2}

    def test_backlog_and_subscribers_of(self):
        broker = Broker()
        broker.bind("sub1", "pub")
        broker.bind("sub2", "pub")
        broker.publish(make_message(app="pub"))
        broker.bind("sub3", "other")
        # Every subscriber of "pub" got the message, and only they did.
        assert broker.backlog() == {"sub1": 1, "sub2": 1, "sub3": 0}


class TestPublisherMetadata:
    def test_publication_registry(self):
        broker = Broker()
        broker.register_publication("pub", "User", ["name"], "causal")
        broker.register_publication("pub", "User", ["email"], "causal")
        assert broker.published_fields("pub", "User") == ["email", "name"]
        assert broker.publisher_mode("pub") == "causal"
        assert broker.published_models("pub") == ["User"]
        assert broker.published_fields("pub", "Nope") is None


class TestFaultInjection:
    def test_drop_next(self):
        broker = Broker()
        q = broker.bind("sub", "pub")
        broker.drop_next(1)
        broker.publish(make_message(app="pub"))
        broker.publish(make_message(app="pub"))
        assert len(q) == 1
        assert broker.metrics.value("broker.dropped") == 1


class TestQueueStats:
    def test_stats_track_queued_and_in_flight(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(op_id=1))
        queue.publish(make_message(op_id=2))
        assert (len(queue), queue.unacked_count) == (2, 0)
        assert (queue.total_published, queue.total_acked) == (2, 0)
        assert not queue.decommissioned
        delivery = queue.pop()
        assert (len(queue), queue.unacked_count) == (1, 1)
        queue.ack(delivery)
        assert (queue.unacked_count, queue.total_acked) == (0, 1)

    def test_broker_in_flight_view(self):
        broker = Broker()
        q = broker.bind("sub", "pub")
        broker.publish(make_message(app="pub"))
        assert broker.in_flight() == {"sub": 0}
        q.pop()
        assert broker.in_flight() == {"sub": 1}

    def test_stats_show_decommission(self):
        broker = Broker(default_queue_limit=2)
        queue = broker.bind("sub", "pub")
        for i in range(3):
            broker.publish(make_message(app="pub", op_id=i))
        assert queue.decommissioned
        assert len(queue) == 0  # backlog was dropped with the queue
