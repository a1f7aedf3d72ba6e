"""Worker resilience against engine faults during message application."""


from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model
from repro.runtime.workers import SubscriberWorkerPool


def build():
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"])
    class User(Model):
        name = Field(str)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="User")
    class SubUser(Model):
        name = Field(str)

    return eco, pub, pub.registry["User"], sub, sub.registry["User"]


class TestApplyFaults:
    def test_transient_db_fault_is_retried(self):
        """The subscriber's engine rejects a few writes; redelivery
        eventually lands every update."""
        eco, pub, User, sub, SubUser = build()
        sub.database.faults.fail_next_writes = 3
        for i in range(10):
            User.create(name=f"u{i}")
        with SubscriberWorkerPool(sub, workers=2, wait_timeout=0.05) as pool:
            assert pool.wait_until_idle(timeout=20)
            assert eco.metrics.value("workers.sub.apply_errors") >= 1
        assert SubUser.count() == 10

    def test_worker_threads_survive_faults(self):
        eco, pub, User, sub, SubUser = build()
        pool = SubscriberWorkerPool(sub, workers=2, wait_timeout=0.05)
        with pool:
            sub.database.faults.fail_next_writes = 2
            for i in range(5):
                User.create(name=f"u{i}")
            assert pool.wait_until_idle(timeout=20)
            # Threads are still alive and keep processing fresh traffic.
            User.create(name="after")
            assert pool.wait_until_idle(timeout=20)
        assert SubUser.count() == 6

    def test_poison_message_eventually_dropped(self):
        """An apply that always fails exhausts the delivery budget and is
        dropped (counted), instead of wedging the queue."""
        eco, pub, User, sub, SubUser = build()
        sub.database.faults.down = True
        User.create(name="poison")
        pool = SubscriberWorkerPool(sub, workers=1, wait_timeout=0.01,
                                    max_deliveries=3)
        with pool:
            assert pool.wait_until_idle(timeout=20)
        assert eco.metrics.value("workers.sub.deadlocked") == 1
        sub.database.faults.down = False
        # Queue is clear; later traffic flows.
        User.create(name="fresh")
        sub.subscriber.drain()
        assert SubUser.count(name="fresh") == 1
