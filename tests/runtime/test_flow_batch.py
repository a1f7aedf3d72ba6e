"""A popped batch is a loop of single applies: ``process_batch`` in
``seq`` order, in-batch causal chains, mid-batch faults, the fixed pop
size, and the batch-of-one equivalence the single apply funnel rests
on."""

import random

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.runtime.flow import FlowConfig
from repro.runtime.interleave import install_hook, uninstall_hook
from repro.runtime.workers import SubscriberWorkerPool


def build_ecosystem(mode="causal", flow=True, coalesce=False, batch_max=8,
                    sub_db=None):
    eco = Ecosystem()
    if flow:
        eco.enable_flow(FlowConfig(batch_max=batch_max, coalesce=coalesce))
    if sub_db is not None:
        eco.service("sub", database=sub_db)
    _, pub, sub, Doc = build_replicated_pair(eco, {"name": str, "score": int}, mode=mode)
    return eco, pub, sub, Doc, sub.registry["Doc"]


class TestProcessBatch:
    def test_in_batch_causal_chain_lands_in_one_call(self):
        """Session writes chain each message to the previous one;
        batches of one need one pass per link, a larger batch classifies
        each member after the earlier ones applied."""
        eco, pub, sub, Doc, SubDoc = build_ecosystem()
        with pub.controller():
            doc = Doc.create(name="d", score=0)
            for r in range(1, 5):
                doc.score = r
                doc.save()
        batch = sub.subscriber.queue.pop_many(8)
        assert len(batch) == 5
        done, retry, errors = sub.subscriber.process_batch(batch)
        assert (len(done), len(retry), errors) == (5, 0, 0)
        assert SubDoc.__mapper__.find(doc.id)["score"] == 4

    def test_unsatisfiable_dependencies_go_to_retry(self):
        eco, pub, sub, Doc, SubDoc = build_ecosystem()
        eco.broker.drop_next(1)  # lose the create: updates can't apply
        with pub.controller():
            doc = Doc.create(name="d", score=0)
            doc.score = 1
            doc.save()
        batch = sub.subscriber.queue.pop_many(8)
        assert len(batch) == 1
        done, retry, errors = sub.subscriber.process_batch(batch)
        assert (len(done), len(retry), errors) == (0, 1, 0)

    def test_mid_batch_fault_redoes_completed_prefix(self):
        """A fault on the Nth apply leaves the applied prefix done and
        retries the rest; nothing needs redoing."""
        eco, pub, sub, Doc, SubDoc = build_ecosystem()
        with pub.controller():
            docs = [Doc.create(name=f"d{i}") for i in range(4)]
        batch = sub.subscriber.queue.pop_many(8)
        sub.database.faults.skip_next_writes = 2
        sub.database.faults.fail_next_writes = 1
        done, retry, errors = sub.subscriber.process_batch(batch)
        assert errors == 1
        assert len(done) + len(retry) == 4 and retry
        for message in done:
            sub.subscriber.queue.ack(message)
        # Retry the survivors now that the fault is consumed.
        done2, retry2, errors2 = sub.subscriber.process_batch(retry)
        assert (len(retry2), errors2) == (0, 0)
        for message in done2:
            sub.subscriber.queue.ack(message)
        for doc in docs:
            assert SubDoc.__mapper__.find(doc.id) is not None
        assert sub.audit_replication().in_sync

    def test_members_apply_alone_and_a_fault_retries_the_rest(self):
        """A batch is a loop of single applies: four single-operation
        messages open no engine transaction, and a fault on member 3
        leaves members 1-2 committed — two engine writes, nothing
        redone — and retries members 3-4."""
        eco, pub, sub, Doc, SubDoc = build_ecosystem()
        with pub.controller():
            docs = [Doc.create(name=f"d{i}") for i in range(4)]
        batch = sub.subscriber.queue.pop_many(8)
        assert len(batch) == 4
        stats = sub.database.stats
        transactions, writes = stats.transactions, stats.writes
        sub.database.faults.skip_next_writes = 2
        sub.database.faults.fail_next_writes = 1
        done, retry, errors = sub.subscriber.process_batch(batch)
        assert errors == 1
        assert stats.transactions == transactions
        assert stats.writes == writes + 2
        in_order = [m.uid for m in sorted(batch, key=lambda m: m.seq)]
        assert [m.uid for m in done] == in_order[:2]
        assert [m.uid for m in retry] == in_order[2:]
        landed = [SubDoc.__mapper__.find(doc.id) is not None for doc in docs]
        assert landed == [True, True, False, False]

    def test_first_failure_ends_a_batch_without_transactions(self):
        """The members after a failed apply must not run: the batch is
        retried from the failed member on, in ``seq`` order. (Regression:
        the loop used to carry on, land the chain's last write, and let
        the retried middle write overwrite it.)"""
        eco, pub, sub, Doc, SubDoc = build_ecosystem(sub_db=MongoLike("sub-db"))
        with pub.controller():
            doc = Doc.create(name="d", score=0)
            for r in (1, 2):
                doc.score = r
                doc.save()
        batch = sub.subscriber.queue.pop_many(8)
        assert len(batch) == 3
        sub.database.faults.skip_next_writes = 1
        sub.database.faults.fail_next_writes = 1
        done, retry, errors = sub.subscriber.process_batch(batch)
        assert (len(done), len(retry), errors) == (1, 2, 1)
        assert SubDoc.__mapper__.find(doc.id)["score"] == 0
        done2, retry2, errors2 = sub.subscriber.process_batch(retry)
        assert (len(done2), len(retry2), errors2) == (2, 0, 0)
        assert SubDoc.__mapper__.find(doc.id)["score"] == 2
        assert sub.audit_replication().in_sync

    def test_weak_batch_converges_and_audits_clean(self):
        eco, pub, sub, Doc, SubDoc = build_ecosystem(
            mode="weak", coalesce=True
        )
        with pub.controller():
            doc = Doc.create(name="d", score=0)
            for r in range(1, 9):
                doc.score = r
                doc.save()
        sub.subscriber.drain()
        assert SubDoc.__mapper__.find(doc.id)["score"] == 8
        assert sub.audit_replication().in_sync

    def test_duplicate_redelivery_is_acked_not_reapplied(self):
        eco, pub, sub, Doc, SubDoc = build_ecosystem()
        with pub.controller():
            Doc.create(name="d")
        queue = sub.subscriber.queue
        batch = queue.pop_many(8)
        done, _, _ = sub.subscriber.process_batch(batch)
        queue.nack(done[0])  # simulate a missed ack: redelivery
        redelivered = queue.pop_many(8)
        done2, retry2, errors2 = sub.subscriber.process_batch(redelivered)
        assert (len(done2), len(retry2), errors2) == (1, 0, 0)
        assert eco.metrics.value("subscriber.sub.duplicates") == 1


class TestBatchedWorkerPool:
    def test_pool_uses_batched_loop_and_drains(self):
        eco, pub, sub, Doc, SubDoc = build_ecosystem(batch_max=8)
        with pub.controller():
            docs = [Doc.create(name=f"d{i}", score=i) for i in range(40)]
        # The 40 creates share one controller session, so their messages
        # form a 40-deep causal chain. Under heavy machine load a
        # mid-chain dependency wait can exceed wait_timeout repeatedly,
        # and the default max_deliveries=20 give-up budget (§6.5 drop)
        # would discard the message; a generous budget keeps the test
        # about batched draining, not give-up policy.
        pool = SubscriberWorkerPool(
            sub, workers=3, wait_timeout=0.1, max_deliveries=10_000
        )
        assert sub.subscriber.batch_limit == 8
        with pool:
            assert pool.wait_until_idle(timeout=10)
        for doc in docs:
            assert SubDoc.__mapper__.find(doc.id) is not None
        assert eco.metrics.snapshot("flow.")["flow.sub.batch_size"]["count"] > 0
        assert eco.metrics.value("workers.sub.gave_up") == 0

    def test_a_pool_pops_batch_limit_like_drain(self):
        """Under flow control a pool pops ``batch_limit`` deliveries —
        the ``batch_max`` that ``drain()`` and the conformance harness
        pop — from its first pop on."""
        eco, pub, sub, Doc, SubDoc = build_ecosystem(batch_max=8)
        queue = sub.subscriber.queue
        asked = []
        pop_many = queue.pop_many

        def spy(limit, **kwargs):
            asked.append(limit)
            return pop_many(limit, **kwargs)

        queue.pop_many = spy
        with pub.controller():
            docs = [Doc.create(name=f"d{i}") for i in range(20)]
        with SubscriberWorkerPool(sub, workers=1, max_deliveries=10_000) as pool:
            assert pool.wait_until_idle(timeout=10)
        assert asked and set(asked) == {sub.subscriber.batch_limit} == {8}
        assert all(SubDoc.__mapper__.find(doc.id) for doc in docs)

    def test_flow_disabled_pool_keeps_single_message_loop(self):
        eco, pub, sub, Doc, SubDoc = build_ecosystem(flow=False)
        pool = SubscriberWorkerPool(sub, workers=2)
        assert sub.subscriber.batch_limit == 1  # FLOW_OFF: one message a pop
        with pub.controller():
            doc = Doc.create(name="d")
        with pool:
            assert pool.wait_until_idle(timeout=10)
        assert SubDoc.__mapper__.find(doc.id) is not None


class TestBatchOfOneIsTheSingleMessagePath:
    """The invariant the one apply funnel rests on: a single message is
    a batch of one. The same seeded stream — a causal publisher and a
    weak one, delivered out of order — must end identically whether it
    goes through ``process_message`` or ``process_batch([m])``, event
    for event; larger batches may take different steps but must reach
    the same rows and counters."""

    def _stream(self, seed=7):
        """A fresh ecosystem with the stream already queued (shuffled by
        ``seed``) at a subscriber of both publishers; flow stays off so
        every run queues exactly the same messages."""
        eco = Ecosystem()
        models = {}
        replicas = []
        for app, mode in (("cpub", "causal"), ("wpub", "weak")):
            _, pub, sub, Doc = build_replicated_pair(
                eco, {"score": int}, f"{app}Doc", mode=mode, pub=app
            )
            models[app] = (pub, Doc)
            replicas.append(sub.registry[f"{app}Doc"])
        rng = random.Random(seed)
        docs = {app: [] for app in models}
        for step in range(48):
            app = rng.choice(sorted(models))
            pub, Doc = models[app]
            with pub.controller():
                if len(docs[app]) < 3 or rng.random() < 0.2:
                    docs[app].append(Doc.create(score=step))
                else:
                    doc = rng.choice(docs[app])
                    doc.score = step
                    doc.save()
        queue = sub.subscriber.queue
        messages = queue.pop_many(10_000)
        assert len(messages) == 48
        rng.shuffle(messages)
        return eco, sub, replicas, messages

    def _run(self, apply, chunk=1):
        """Apply the stream ``chunk`` deliveries at a time, re-offering
        what stalled, and return every observable end state."""
        eco, sub, replicas, pending = self._stream()
        labels = []

        def hook(label, info, pause):
            labels.append(label)

        install_hook(hook)
        try:
            while pending:
                stalled = []
                for start in range(0, len(pending), chunk):
                    batch = pending[start:start + chunk]
                    done = apply(sub.subscriber, batch)
                    for message in done:
                        sub.subscriber.queue.ack(message)
                    stalled.extend(m for m in batch if m not in done)
                assert len(stalled) < len(pending), "stream wedged"
                pending = stalled
        finally:
            uninstall_hook(hook)
        rows = [
            sorted((doc.id, doc.score) for doc in cls.all())
            for cls in replicas
        ]
        registry = {
            name: value["count"] if isinstance(value, dict) else value
            for name, value in eco.metrics.snapshot().items()
            if name.startswith(("subscriber.", "versionstore."))
        }
        counters = sub.subscriber_version_store.snapshot()
        return rows, counters, registry, labels

    @staticmethod
    def _one_at_a_time(subscriber, batch):
        return [m for m in batch if subscriber.process_message(m)]

    @staticmethod
    def _as_batch(subscriber, batch):
        done, _retry, errors = subscriber.process_batch(batch)
        assert errors == 0
        return done

    def test_process_message_equals_process_batch_of_one(self):
        single = self._run(self._one_at_a_time)
        batched = self._run(self._as_batch)
        assert single == batched
        rows, _counters, registry, labels = single
        assert sum(len(r) for r in rows) > 0
        assert registry["subscriber.sub.processed"] == 48
        # Out-of-order delivery really exercised both stall kinds.
        assert registry["subscriber.sub.stale_discarded"] > 0
        assert labels.count("dep.check") > labels.count("apply")

    def test_chunks_of_eight_reach_the_same_state(self):
        rows, counters, registry, _ = self._run(self._one_at_a_time)
        rows8, counters8, registry8, _ = self._run(self._as_batch, chunk=8)
        assert (rows8, counters8) == (rows, counters)
        for name in ("subscriber.sub.processed", "subscriber.sub.duplicates",
                     "subscriber.sub.dep_wait", "versionstore.sub.applied"):
            assert registry8[name] == registry[name], name
