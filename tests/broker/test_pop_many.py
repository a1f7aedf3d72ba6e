"""``SubscriberQueue.pop_many``: batched pops in one lock round-trip,
and the notify-per-message wakeup discipline (the thundering-herd fix).
"""

import threading
import time

import pytest

from repro.broker import Message, SubscriberQueue
from repro.errors import QueueDecommissioned


def make_message(op_id=1):
    return Message(
        app="pub",
        operations=[{"operation": "create", "types": ["User"], "id": op_id,
                     "attributes": {"name": "x"}}],
        dependencies={},
        published_at=0.0,
    )


class TestPopMany:
    def test_empty_and_nonpositive(self):
        queue = SubscriberQueue("q")
        assert queue.pop_many(0) == []
        assert queue.pop_many(-3) == []
        assert queue.pop_many(5) == []  # timeout=0 polls

    def test_fifo_order_up_to_max_n(self):
        queue = SubscriberQueue("q")
        published = [make_message(op_id=i) for i in range(5)]
        for message in published:
            queue.publish(message)
        batch = queue.pop_many(3)
        assert [m.seq for m in batch] == [m.seq for m in published[:3]]
        assert len(queue) == 2
        rest = queue.pop_many(10)
        assert [m.seq for m in rest] == [m.seq for m in published[3:]]

    def test_per_delivery_bookkeeping_matches_pop(self):
        queue = SubscriberQueue("q")
        for i in range(3):
            queue.publish(make_message(op_id=i))
        batch = queue.pop_many(3)
        assert all(m.delivery_count == 1 for m in batch)
        assert all(m.dwell is not None for m in batch)
        assert [m.seq for m in queue.peek_unacked()] == [m.seq for m in batch]
        for message in batch:
            queue.ack(message)
        assert queue.total_acked == 3

    def test_nacked_message_leads_next_batch(self):
        queue = SubscriberQueue("q")
        for i in range(3):
            queue.publish(make_message(op_id=i))
        first, second, third = queue.pop_many(3)
        queue.nack(second)
        queue.nack(first)  # nack pushes to the front: first leads again
        batch = queue.pop_many(5)
        assert [m.seq for m in batch] == [first.seq, second.seq]
        assert batch[0].delivery_count == 2

    def test_blocks_for_first_message_only(self):
        queue = SubscriberQueue("q")
        results = []

        def popper():
            results.extend(queue.pop_many(8, timeout=2.0))

        thread = threading.Thread(target=popper)
        thread.start()
        time.sleep(0.05)
        queue.publish(make_message(op_id=1))
        thread.join(timeout=2)
        assert not thread.is_alive()
        # Only what was queued at wake-up time — no second wait.
        assert len(results) == 1

    def test_timeout_expires_to_empty_batch(self):
        queue = SubscriberQueue("q")
        start = time.monotonic()
        assert queue.pop_many(4, timeout=0.05) == []
        assert time.monotonic() - start >= 0.04

    def test_decommissioned_raises(self):
        queue = SubscriberQueue("q", max_size=1)
        for i in range(3):  # overflow kills the queue
            queue.publish(make_message(op_id=i))
        assert queue.decommissioned
        with pytest.raises(QueueDecommissioned):
            queue.pop_many(4)

    def test_decommission_wakes_blocked_pop_many(self):
        # max_size=0: the very first publish overflows and kills the
        # queue, so the blocked popper cannot race for the message — it
        # must be woken by the kill's notify_all and raise.
        queue = SubscriberQueue("q", max_size=0)
        outcome = []

        def popper():
            try:
                queue.pop_many(4, timeout=5.0)
                outcome.append("returned")
            except QueueDecommissioned:
                outcome.append("decommissioned")

        thread = threading.Thread(target=popper)
        thread.start()
        time.sleep(0.05)
        queue.publish(make_message(op_id=1))
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert outcome == ["decommissioned"]


class TestNotifyDiscipline:
    def test_each_publish_wakes_one_waiter(self):
        """N publishes must wake N blocked workers — publish notifies
        per message, so no waiter sleeps through its deadline while a
        message sits queued (and no herd stampedes for one message)."""
        queue = SubscriberQueue("q")
        got = []
        got_lock = threading.Lock()

        def popper():
            message = queue.pop(timeout=2.0)
            with got_lock:
                got.append(message)

        threads = [threading.Thread(target=popper) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        for i in range(3):
            queue.publish(make_message(op_id=i))
        for thread in threads:
            thread.join(timeout=3)
        assert not any(t.is_alive() for t in threads)
        assert all(m is not None for m in got)
        assert len({m.seq for m in got}) == 3  # one message each, no dupes

    def test_nack_wakes_a_waiter(self):
        queue = SubscriberQueue("q")
        queue.publish(make_message(op_id=1))
        held = queue.pop()
        results = []

        def popper():
            results.append(queue.pop(timeout=2.0))

        thread = threading.Thread(target=popper)
        thread.start()
        time.sleep(0.05)
        queue.nack(held)
        thread.join(timeout=3)
        assert not thread.is_alive()
        assert results and results[0] is not None
        assert results[0].seq == held.seq
