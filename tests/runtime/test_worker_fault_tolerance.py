"""Worker resilience against engine faults during message application."""


from repro.apps import build_replicated_pair
from repro.repair import repair_subscriber
from repro.runtime.workers import SubscriberWorkerPool


def build():
    eco, pub, sub, User = build_replicated_pair(model="User")
    return eco, pub, User, sub, sub.registry["User"]


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
        given up on, instead of wedging the queue. The heal fails too —
        the engine is down — and says so in its anomaly, but the worker
        lives on: later traffic lands through the pool, and one repair
        once the engine is back converges."""
        eco, pub, User, sub, SubUser = build()
        sub.database.faults.down = True
        poison = User.create(name="poison")
        pool = SubscriberWorkerPool(sub, workers=1, wait_timeout=0.01,
                                    max_deliveries=3)
        with pool:
            assert pool.wait_until_idle(timeout=20)
            assert eco.metrics.value("workers.sub.gave_up") == 1
            (gave_up,) = eco.recorder.events("worker.gave_up")
            assert gave_up.data["error"]
            assert sub.subscriber.queue.unacked_count == 0
            assert all(thread.is_alive() for thread in pool._threads)
            # The failed heal's bootstrap ended with it: ordered again.
            assert not sub.subscriber.bootstrapping

            sub.database.faults.down = False
            User.create(name="fresh")
            assert pool.wait_until_idle(timeout=20)
            assert SubUser.count(name="fresh") == 1
        result = repair_subscriber(sub)
        assert result.verified_in_sync
        assert SubUser.find(poison.id).name == "poison"
