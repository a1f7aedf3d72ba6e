""""Already applied?" is a counter question (§4.2).

A message has been applied when every object it writes has a subscriber
counter past the version the message carries for that object. These
regressions pin the two silent divergences a bounded uid window left
behind — a redelivery outliving the window, a bootstrap draining what
its bulk counter transfer already counted — and the weak case, where a
redelivery is discarded object by object.
"""

from repro.apps import build_replicated_pair
from repro.core.bootstrap import bootstrap_subscriber
from repro.core.dependencies import dep_name


def pair(mode="causal"):
    return build_replicated_pair(None, {"name": str, "value": int}, mode=mode)


def counters(pub, sub, doc):
    """(publisher ops, subscriber counter) of one object."""
    dep = dep_name("pub", doc.table_name(), doc.id)
    ops, _version = pub.publisher_version_store.current(dep)
    hashed = sub.ecosystem.hasher.hash(dep)
    return ops, sub.subscriber_version_store.ops(hashed)


def assert_out_of_order_pair_waits(pub, sub, doc):
    """Two updates of ``doc``, the newer offered first: it must wait
    for the older, and the replica must end on the newer value."""
    subscriber, queue = sub.subscriber, sub.subscriber.queue
    doc.update(value=20)
    doc.update(value=30)
    older, newer = queue.pop_many(2)
    assert older.seq < newer.seq
    assert not subscriber.process_message(newer)
    assert subscriber.process_message(older)
    queue.ack(older)
    assert subscriber.process_message(newer)
    queue.ack(newer)
    replica = sub.registry["Doc"]
    assert replica.find(doc.id).value == 30
    assert sub.audit_replication().in_sync


class TestRedeliveryOutlivesAnyWindow:
    def test_late_redelivery_is_a_duplicate(self):
        """A delivery whose ack is lost returns after 4,096 other
        applies: still a duplicate, its counter unmoved."""
        eco, pub, sub, Doc = pair()
        subscriber, queue = sub.subscriber, sub.subscriber.queue
        doc = Doc.create(name="first", value=10)
        (held,) = queue.pop_many(1)
        assert subscriber.process_message(held)  # applied; the ack is lost
        for i in range(4096):
            Doc.create(name=f"other-{i}")
        assert subscriber.drain() == 4096
        before = counters(pub, sub, doc)
        assert before == (1, 1)

        queue.nack(held)
        (again,) = queue.pop_many(1)
        assert again.uid == held.uid
        assert subscriber.process_message(again)
        queue.ack(again)
        assert eco.metrics.value("subscriber.sub.duplicates") == 1
        assert counters(pub, sub, doc) == before

        assert_out_of_order_pair_waits(pub, sub, doc)


class TestBootstrapSkipsWhatItCounted:
    def test_partial_bootstrap_does_not_recount_queued_updates(self):
        eco, pub, sub, Doc = pair()
        docs = [Doc.create(name=f"doc-{i}", value=i) for i in range(5)]
        sub.subscriber.drain()
        for doc in docs:
            doc.update(value=doc.value + 100)
        assert len(sub.subscriber.queue) == 5

        bootstrap_subscriber(sub)
        assert not len(sub.subscriber.queue)
        for doc in docs:
            published, seen = counters(pub, sub, doc)
            assert seen <= published
        # The bulk transfer counted every queued update: each one drained
        # as a duplicate, none bumped again.
        assert eco.metrics.value("subscriber.sub.duplicates") == 5

        assert_out_of_order_pair_waits(pub, sub, docs[0])


class TestWeakRedelivery:
    def test_weak_redelivery_lands_no_write_and_no_fast_forward(self, monkeypatch):
        eco, pub, sub, Doc = pair(mode="weak")
        subscriber, queue = sub.subscriber, sub.subscriber.queue
        store = sub.subscriber_version_store
        doc = Doc.create(name="a", value=1)
        (held,) = queue.pop_many(1)
        assert subscriber.process_message(held)
        before = counters(pub, sub, doc)
        # Diverge the replica by hand: a second landing would undo it.
        replica = sub.registry["Doc"]
        replica.__mapper__._do_update(doc.id, {"value": 99})
        forwarded = []
        monkeypatch.setattr(
            store, "fast_forward", lambda *args: forwarded.append(args)
        )

        queue.nack(held)
        (again,) = queue.pop_many(1)
        assert subscriber.process_message(again)
        queue.ack(again)
        assert forwarded == []
        assert counters(pub, sub, doc) == before
        assert replica.find(doc.id).value == 99
        assert eco.metrics.value("subscriber.sub.stale_discarded") == 1
        assert eco.metrics.value("subscriber.sub.duplicates") == 0
