"""Unit tests for the queue-level race fixes: in-flight visibility
(``peek_unacked``), tolerated ack/nack after decommission, and the
predicate re-check deadline loop in ``pop``."""

import threading
import time

import pytest

from repro.broker import Message, SubscriberQueue
from repro.errors import BrokerError, QueueDecommissioned


def make_message(app="pub", op_id=1):
    return Message(
        app=app,
        operations=[{"operation": "create", "types": ["User"], "id": op_id,
                     "attributes": {"name": "x"}}],
        dependencies={},
        published_at=0.0,
    )


class TestPeekUnacked:
    def test_popped_messages_visible_until_acked(self):
        queue = SubscriberQueue("q")
        first, second = make_message(op_id=1), make_message(op_id=2)
        queue.publish(first)
        queue.publish(second)
        assert queue.peek_unacked() == []
        got_first = queue.pop()
        got_second = queue.pop()
        assert [m.seq for m in queue.peek_unacked()] == [
            got_first.seq, got_second.seq
        ]
        assert queue.peek_all() == []  # invisible to the queued view
        queue.ack(got_first)
        assert [m.seq for m in queue.peek_unacked()] == [got_second.seq]
        queue.nack(got_second)
        assert queue.peek_unacked() == []
        assert [m.seq for m in queue.peek_all()] == [got_second.seq]

    def test_seq_order_regardless_of_pop_order(self):
        queue = SubscriberQueue("q")
        for i in range(3):
            queue.publish(make_message(op_id=i))
        popped = [queue.pop() for _ in range(3)]
        queue.nack(popped[0])
        queue.pop()  # re-pop the nacked head: highest delivery count
        assert [m.seq for m in queue.peek_unacked()] == sorted(
            m.seq for m in popped
        )


class TestDecommissionTolerance:
    def _decommissioned_with_inflight(self):
        queue = SubscriberQueue("q", max_size=2)
        queue.publish(make_message(op_id=1))
        inflight = queue.pop()
        # Overflow: the third queued item kills the queue and clears the
        # unacked table while `inflight` is still mid-message.
        for i in range(2, 6):
            queue.publish(make_message(op_id=i))
        assert queue.decommissioned
        return queue, inflight

    def test_ack_after_decommission_is_noop(self):
        queue, inflight = self._decommissioned_with_inflight()
        queue.ack(inflight)  # must not raise: worker survives to its next pop
        assert queue.total_acked == 0  # tolerated, not counted

    def test_nack_after_decommission_is_noop(self):
        queue, inflight = self._decommissioned_with_inflight()
        queue.nack(inflight)
        assert len(queue) == 0

    def test_ack_after_a_heal_recommissioned_the_queue_is_noop(self):
        """A pool worker popped a batch before the decommission and
        waited out the heal that recommissioned the queue: its ack must
        not kill it. A delivery popped after the heal is held to the
        strict rule."""
        queue, inflight = self._decommissioned_with_inflight()
        queue.recommission()
        queue.ack(inflight)
        assert queue.total_acked == 0
        queue.publish(make_message(op_id=9))
        later = queue.pop()
        queue.ack(later)
        with pytest.raises(BrokerError):
            queue.ack(later)

    def test_next_pop_still_reports_decommission(self):
        queue, inflight = self._decommissioned_with_inflight()
        queue.ack(inflight)
        with pytest.raises(QueueDecommissioned):
            queue.pop()

    def test_ack_unknown_on_live_queue_still_rejected(self):
        queue = SubscriberQueue("q")
        queue.publish(make_message())
        message = queue.pop()
        queue.ack(message)
        with pytest.raises(BrokerError):
            queue.ack(message)  # double-ack on a healthy queue is a bug


class TestPopDeadlineLoop:
    def test_spurious_wakeup_does_not_end_the_wait(self):
        queue = SubscriberQueue("q")
        outcome = {}

        def consumer():
            outcome["message"] = queue.pop(timeout=1.0)

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        # Several bare notifies (spurious wakeups / stolen notifies),
        # then a real publish well before the deadline.
        for _ in range(3):
            time.sleep(0.03)
            with queue._lock:
                queue._available.notify_all()
        queue.publish(make_message())
        thread.join(4.0)
        assert not thread.is_alive()
        assert outcome["message"] is not None

    def test_timeout_expires_against_one_deadline(self):
        queue = SubscriberQueue("q")
        start = time.monotonic()
        assert queue.pop(timeout=0.15) is None
        # The full patience was consumed in one deadline, not reset by
        # repeated waits.
        elapsed = time.monotonic() - start
        assert 0.14 <= elapsed < 2.0

    def test_zero_timeout_still_polls(self):
        queue = SubscriberQueue("q")
        assert queue.pop(timeout=0.0) is None
        queue.publish(make_message())
        assert queue.pop(timeout=0.0) is not None

    def test_notify_steal_between_two_consumers(self):
        queue = SubscriberQueue("q")
        results = []
        lock = threading.Lock()

        def consumer():
            message = queue.pop(timeout=2.0)
            with lock:
                results.append(message)

        threads = [threading.Thread(target=consumer, daemon=True)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        queue.publish(make_message(op_id=1))  # wakes both, one wins
        time.sleep(0.05)
        queue.publish(make_message(op_id=2))  # the loser must still get this
        for thread in threads:
            thread.join(8.0)
        assert len(results) == 2
        assert all(message is not None for message in results)
