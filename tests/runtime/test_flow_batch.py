"""Dependency-aware batched apply: ``process_batch`` group commit,
in-batch causal chains, mid-batch fault recovery, the AIMD sizer, and
the batch-of-one equivalence the single apply funnel rests on."""

import random

from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model
from repro.runtime.flow import BatchSizer, FlowConfig
from repro.runtime.interleave import install_hook, uninstall_hook
from repro.runtime.workers import SubscriberWorkerPool


class TestBatchSizer:
    def _sizer(self, **kwargs):
        defaults = dict(batch_min=1, batch_max=16)
        defaults.update(kwargs)
        return BatchSizer(FlowConfig(**defaults), pressure=lambda: 0.0)

    def test_starts_at_batch_min(self):
        assert self._sizer(batch_min=3).current == 3

    def test_full_clean_batches_grow_additively(self):
        sizer = self._sizer()
        assert sizer.on_batch(popped=1, applied=1, failed=0) == 3
        assert sizer.on_batch(popped=3, applied=3, failed=0) == 5
        # Partial batch (queue drained): no growth signal.
        assert sizer.on_batch(popped=2, applied=2, failed=0) == 5

    def test_growth_caps_at_batch_max(self):
        sizer = self._sizer(batch_max=4)
        for _ in range(10):
            sizer.on_batch(popped=sizer.current, applied=sizer.current,
                           failed=0)
        assert sizer.current == 4

    def test_failure_dominated_batch_halves(self):
        sizer = self._sizer()
        for _ in range(4):
            sizer.on_batch(popped=sizer.current, applied=sizer.current,
                           failed=0)
        grown = sizer.current
        assert grown > 1
        assert sizer.on_batch(popped=4, applied=1, failed=3) == max(
            1, int(grown * 0.5)
        )

    def test_minor_failures_do_not_shrink(self):
        sizer = self._sizer()
        sizer.on_batch(popped=1, applied=1, failed=0)
        before = sizer.current
        assert sizer.on_batch(popped=8, applied=7, failed=1) == before

    def test_lag_pressure_grows_and_headroom_decays(self):
        sizer = self._sizer()
        assert sizer.observe_pressure(2.0) == 3  # over SLO: drain harder
        assert sizer.observe_pressure(1.5) == 5
        assert sizer.observe_pressure(0.5) == 5  # in-band: hold
        assert sizer.observe_pressure(0.1) == 4  # healthy: decay by one
        for _ in range(10):
            sizer.observe_pressure(0.0)
        assert sizer.current == 1  # floors at batch_min

    def test_a_pool_batch_reads_link_pressure_every_32nd_time(self):
        reads = []
        sizer = BatchSizer(
            FlowConfig(batch_max=16), pressure=lambda: reads.append(1) or 2.0
        )
        for _ in range(64):
            sizer.after_batch(popped=0, applied=0, failed=0)
        assert len(reads) == 2 and sizer.current == 5


def build_ecosystem(mode="causal", flow=True, coalesce=False, batch_max=8,
                    sub_db=None):
    eco = Ecosystem()
    if flow:
        eco.enable_flow(FlowConfig(batch_max=batch_max, coalesce=coalesce))
    pub = eco.service("pub", database=MongoLike("pub-db"), delivery_mode=mode)

    @pub.model(publish=["name", "score"], name="Doc")
    class Doc(Model):
        name = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=sub_db or PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name", "score"],
                          "mode": mode}, name="Doc")
    class SubDoc(Model):
        name = Field(str)
        score = Field(int, default=0)

    return eco, pub, sub, Doc, SubDoc


class TestProcessBatch:
    def test_group_commit_is_one_engine_transaction(self):
        eco, pub, sub, Doc, SubDoc = build_ecosystem()
        with pub.controller():
            docs = [Doc.create(name=f"d{i}") for i in range(6)]
        batch = sub.subscriber.queue.pop_many(8)
        assert len(batch) == 6
        tx_before = sub.database.stats.transactions
        done, retry, errors = sub.subscriber.process_batch(batch)
        assert (len(done), len(retry), errors) == (6, 0, 0)
        assert sub.database.stats.transactions == tx_before + 1
        for message in done:
            sub.subscriber.queue.ack(message)
        for doc in docs:
            assert SubDoc.__mapper__.find(doc.id) is not None

    def test_in_batch_causal_chain_lands_in_one_call(self):
        """Session writes chain each message to the previous one;
        batches of one need one pass per link, a larger batch verifies
        against the bumps its earlier members will make."""
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
        """A fault on the Nth apply rolls back the whole group commit;
        the already-counted prefix must be redone (its counters and
        dedup entries are final), the rest retried."""
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

    def test_redo_failure_does_not_poison_the_batch(self):
        """If a rollback-recovery redo fails a second time, the other
        redos must still run and the exception must not escape
        ``process_batch`` — the completed prefix is already counted and
        deduped, so a batch-wide nack would silently lose its writes on
        the dedup-skipping redelivery."""
        eco, pub, sub, Doc, SubDoc = build_ecosystem()
        with pub.controller():
            docs = [Doc.create(name=f"d{i}") for i in range(4)]
        batch = sub.subscriber.queue.pop_many(8)
        # Writes 1-2 land in the transaction, write 3 faults (rollback);
        # the redo pass then redoes writes 1-2, and the first of those
        # faults again.
        sub.database.faults.skip_next_writes = 2
        sub.database.faults.fail_next_writes = 2
        done, retry, errors = sub.subscriber.process_batch(batch)
        assert errors == 1
        # The completed prefix is done (ackable), never retried.
        assert len(done) == 2 and len(retry) == 2
        assert eco.metrics.value("subscriber.sub.redo_failed") == 1
        # The second redo still ran: its row exists.
        redone = [d for m in done for d in docs if d.id == m.operations[0]["id"]]
        assert any(SubDoc.__mapper__.find(d.id) is not None for d in redone)
        for message in done:
            sub.subscriber.queue.ack(message)
        done2, retry2, errors2 = sub.subscriber.process_batch(retry)
        assert (len(retry2), errors2) == (0, 0)
        for message in done2:
            sub.subscriber.queue.ack(message)
        # The lost redo shows up as divergence for anti-entropy to heal.
        report = sub.audit_replication()
        assert not report.in_sync
        assert sub.repair_replication(report=report).verified_in_sync

    def test_first_failure_ends_a_batch_without_transactions(self):
        """On an engine without transactions nothing rolls back, so the
        members after a failed apply must not run: they may have been
        admitted against the failed member's pending bumps. (Regression:
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
        assert isinstance(pool._sizer, BatchSizer)  # batches sized by AIMD
        with pool:
            assert pool.wait_until_idle(timeout=10)
        for doc in docs:
            assert SubDoc.__mapper__.find(doc.id) is not None
        assert eco.metrics.snapshot("flow.")["flow.sub.batch_size"]["count"] > 0
        assert eco.metrics.value("workers.sub.deadlocked") == 0

    def test_flow_disabled_pool_keeps_single_message_loop(self):
        eco, pub, sub, Doc, SubDoc = build_ecosystem(flow=False)
        pool = SubscriberWorkerPool(sub, workers=2)
        assert pool._sizer is eco.flow  # FLOW_OFF: one message a batch
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
        for app, mode in (("cpub", "causal"), ("wpub", "weak")):
            pub = eco.service(app, database=MongoLike(f"{app}-db"),
                              delivery_mode=mode)

            @pub.model(publish=["score"], name=f"{app}Doc")
            class Doc(Model):
                score = Field(int, default=0)

            models[app] = (pub, Doc)
        sub = eco.service("sub", database=PostgresLike("sub-db"))
        replicas = []
        for app, mode in (("cpub", "causal"), ("wpub", "weak")):
            @sub.model(subscribe={"from": app, "fields": ["score"],
                                  "mode": mode}, name=f"{app}Doc")
            class SubDoc(Model):
                score = Field(int, default=0)

            replicas.append(SubDoc)
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
        assert "batch.apply" not in labels

    def test_chunks_of_eight_reach_the_same_state(self):
        rows, counters, registry, _ = self._run(self._one_at_a_time)
        rows8, counters8, registry8, labels8 = self._run(self._as_batch, chunk=8)
        assert (rows8, counters8) == (rows, counters)
        for name in ("subscriber.sub.processed", "subscriber.sub.duplicates",
                     "subscriber.sub.dep_wait", "versionstore.sub.applied"):
            assert registry8[name] == registry[name], name
        assert "batch.apply" in labels8  # several really applied together
