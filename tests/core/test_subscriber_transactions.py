"""Subscriber-side atomic application of transactional messages (§4.2)."""

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike


def build(eco):
    eco.service("pub", database=PostgresLike("pub-db"))
    _, pub, sub, Account = build_replicated_pair(
        eco, {"name": str, "balance": int}, "Account"
    )
    return pub, Account, sub, sub.registry["Account"]


class TestAtomicApply:
    def test_multi_op_message_applied_in_one_transaction(self):
        eco = Ecosystem()
        pub, Account, sub, SubAccount = build(eco)
        with pub.database.begin():
            a = Account.create(name="a", balance=100)
            b = Account.create(name="b", balance=0)
            a.update(balance=60)
            b.update(balance=40)
        before = sub.database.stats.transactions
        sub.subscriber.drain()
        assert sub.database.stats.transactions == before + 1
        assert SubAccount.find(a.id).balance == 60
        assert SubAccount.find(b.id).balance == 40

    def test_faulted_transaction_rolls_back_and_retries_cleanly(self):
        """A mid-transaction engine fault leaves nothing half-applied;
        the redelivery then applies everything."""
        eco = Ecosystem()
        pub, Account, sub, SubAccount = build(eco)
        with pub.database.begin():
            Account.create(name="a", balance=1)
            Account.create(name="b", balance=2)
        queue = sub.subscriber.queue
        message = queue.pop()
        # First apply dies on the second op's engine write.
        sub.database.faults.skip_next_writes = 1
        sub.database.faults.fail_next_writes = 1
        with pytest.raises(Exception):
            sub.subscriber.process_message(message)
        assert SubAccount.count() == 0  # rolled back, nothing partial
        # Redelivery succeeds and deps were not double-counted.
        assert sub.subscriber.process_message(message)
        assert SubAccount.count() == 2

    def test_single_op_messages_skip_transactions(self):
        eco = Ecosystem()
        pub, Account, sub, SubAccount = build(eco)
        Account.create(name="solo", balance=1)
        before = sub.database.stats.transactions
        sub.subscriber.drain()
        assert sub.database.stats.transactions == before

    def test_non_transactional_subscriber_still_works(self):
        eco = Ecosystem()
        eco.service("pub", database=PostgresLike("p"))
        eco.service("sub", database=MongoLike("s"))  # no txns
        _, pub, sub, Item = build_replicated_pair(eco, {"n": int}, "Item")
        SubItem = sub.registry["Item"]

        with pub.database.begin():
            Item.create(n=1)
            Item.create(n=2)
        sub.subscriber.drain()
        assert SubItem.count() == 2
