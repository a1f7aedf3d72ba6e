"""Transactional publishing: one message per transaction, 2PC (§4.2)."""

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike


@pytest.fixture
def eco():
    return Ecosystem()


def build(eco):
    eco.service("pub", database=PostgresLike("pub-db"))
    eco.service("sub", database=MongoLike("sub-db"))
    _, pub, sub, Account = build_replicated_pair(
        eco, {"name": str, "balance": int}, "Account"
    )
    return pub, Account, sub, sub.registry["Account"]


class TestTransactionalPublishing:
    def test_all_writes_in_one_message(self, eco):
        pub, Account, sub, SubAccount = build(eco)
        probe = eco.broker.bind("probe", "pub")
        db = pub.database
        with db.begin():
            a = Account.create(name="a", balance=100)
            b = Account.create(name="b", balance=0)
            a.update(balance=50)
            b.update(balance=50)
        msg = probe.pop()
        assert probe.pop() is None  # exactly one message
        kinds = [op["operation"] for op in msg.operations]
        assert kinds == ["create", "create", "update", "update"]
        assert pub.publisher.messages_published == 1

    def test_subscriber_applies_transaction_atomically_in_order(self, eco):
        pub, Account, sub, SubAccount = build(eco)
        with pub.database.begin():
            a = Account.create(name="a", balance=100)
            b = Account.create(name="b", balance=0)
            a.update(balance=50)
            b.update(balance=50)
        sub.subscriber.drain()
        assert SubAccount.find(a.id).balance == 50
        assert SubAccount.find(b.id).balance == 50

    def test_rollback_publishes_nothing(self, eco):
        pub, Account, sub, SubAccount = build(eco)
        with pytest.raises(RuntimeError):
            with pub.database.begin():
                Account.create(name="a", balance=1)
                raise RuntimeError("boom")
        assert pub.publisher.messages_published == 0
        sub.subscriber.drain()
        assert SubAccount.count() == 0
        # The local DB rolled back too.
        assert Account.count() == 0

    def test_transaction_dependencies_cover_all_written_objects(self, eco):
        pub, Account, sub, SubAccount = build(eco)
        probe = eco.broker.bind("probe", "pub")
        with pub.database.begin():
            Account.create(name="a", balance=1)
            Account.create(name="b", balance=2)
        msg = probe.pop()
        assert "pub/accounts/id/1" in msg.dependencies
        assert "pub/accounts/id/2" in msg.dependencies

    def test_transactions_chain_within_controller(self, eco):
        pub, Account, sub, SubAccount = build(eco)
        probe = eco.broker.bind("probe", "pub")
        with pub.controller():
            with pub.database.begin():
                a = Account.create(name="a", balance=1)
            with pub.database.begin():
                a.update(balance=2)
        probe.pop()
        m2 = probe.pop()
        # Second txn read-depends on the first txn's first write dep.
        assert m2.dependencies["pub/accounts/id/1"] == 1

    def test_failed_prepare_rolls_back_local_commit(self, eco):
        """2PC: if version bumping dies, the local commit must not land."""
        pub, Account, sub, SubAccount = build(eco)
        # Crash the publisher's version store mid-flight: prepare recovers
        # by bumping the generation, so instead we simulate a hard failure
        # of the broker-side publish by crashing during prepare via a bad
        # hook injected *after* Synapse's own hook.
        txn = pub.database.begin()
        Account.create(name="a", balance=1)
        txn.on_prepare.append(lambda t: (_ for _ in ()).throw(RuntimeError("die")))
        with pytest.raises(RuntimeError):
            txn.commit()
        assert Account.count() == 0
        assert pub.publisher.messages_published == 0

    def test_generation_bump_on_version_store_death_in_txn(self, eco):
        pub, Account, sub, SubAccount = build(eco)
        for shard in pub.publisher_version_store.kv.shards:
            shard.crash()
        with pub.database.begin():
            Account.create(name="a", balance=1)
        # Publishing succeeded under a new generation.
        assert pub.publisher.messages_published == 1
        assert pub.current_generation() == 2
        sub.subscriber.drain()
        assert SubAccount.count() == 1


@pytest.mark.parametrize("mode", ["causal", "global"])
def test_a_transaction_rolled_back_after_prepare_wedges_nothing(mode):
    """The prepare phase moves no counter, so a rollback after it leaves
    none ahead of the messages: the doc's next write — and, in global
    mode, every later write of any object — lands by drain alone."""
    eco = Ecosystem()
    eco.service("pub", database=PostgresLike("pub-db"), delivery_mode=mode)
    _, pub, sub, PubDoc = build_replicated_pair(eco, {"value": int}, mode=mode)
    SubDoc = sub.registry["Doc"]

    doc = PubDoc.create(value=1)
    sub.subscriber.drain()
    txn = pub.database.begin()
    doc.update(value=2)
    txn.prepare()
    txn.rollback()
    assert pub.publisher.messages_published == 1

    doc.update(value=3)
    other = PubDoc.create(value=7)
    sub.subscriber.drain()
    assert SubDoc.find(doc.id).value == 3
    assert SubDoc.find(other.id).value == 7
    assert sub.subscriber.stuck_dependencies() == {}
    assert sub.audit_replication().in_sync
