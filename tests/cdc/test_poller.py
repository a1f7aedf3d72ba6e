"""The CDC poller: delivery parity with the ORM front-end, stable
``<app>:cdc:<seq>`` uids and dedup, quiescence integration, the flow
shed exemption, and the auditor's transit attribution (docs/cdc.md)."""

from __future__ import annotations

import pytest

from repro.apps import build_replicated_pair
from repro.broker import Message
from repro.cdc import PollCrash
from repro.durability.wal import SimulatedCrash
from repro.errors import CdcError
from repro.runtime.flow import FlowConfig
from repro.runtime.flow.admission import ADMIT, SHED, QueueFlow
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.workers import WorkerFleet


def build_pipeline(mode="causal"):
    eco, pub, sub, PubDoc = build_replicated_pair(
        fields={"name": str, "value": int}, mode=mode
    )
    pub.enable_outbox()
    return eco, pub, sub, PubDoc, sub.registry["Doc"]


def rows_of(model_cls):
    return sorted(
        (
            (row["id"], row.get("name"), row.get("value"))
            for row in model_cls.__mapper__._do_where({}, None, None)
        ),
    )


class TestDeliveryParity:
    @pytest.mark.parametrize("mode", ["weak", "causal", "global"])
    def test_raw_and_orm_writes_land_identically(self, mode):
        """Both front-ends feed one pipeline: after a drain the replica
        holds the union, whatever mix of paths produced it."""
        eco, pub, sub, PubDoc, SubDoc = build_pipeline(mode)
        with pub.controller():
            PubDoc.create(name="orm", value=1)
        raw = pub.raw_session()
        row = raw.insert(PubDoc, {"name": "raw", "value": 2})
        raw.update(PubDoc, row["id"], {"name": "raw", "value": 20})
        with pub.controller():
            PubDoc.create(name="orm-2", value=3)
        eco.drain_all()
        assert rows_of(SubDoc) == rows_of(PubDoc)
        assert eco.cdc.idle()

    def test_raw_delete_replicates(self):
        eco, pub, sub, PubDoc, SubDoc = build_pipeline()
        raw = pub.raw_session()
        keep = raw.insert(PubDoc, {"name": "keep", "value": 1})
        drop = raw.insert(PubDoc, {"name": "drop", "value": 2})
        eco.drain_all()
        assert len(rows_of(SubDoc)) == 2
        raw.delete(PubDoc, drop["id"])
        eco.drain_all()
        assert rows_of(SubDoc) == [(keep["id"], "keep", 1)]


class TestStableUids:
    def test_uid_derives_from_outbox_seq(self):
        eco, pub, sub, PubDoc, _ = build_pipeline()
        pub.raw_session().insert(PubDoc, {"name": "a", "value": 1})
        assert pub.cdc_poller.poll() == 1
        (message,) = sub.subscriber.queue.peek_all()
        assert message.uid == "pub:cdc:1"
        assert message.cdc == 1

    def test_crash_replay_republish_dedups_at_subscriber(self):
        """A rewound cursor (the before-checkpoint crash window) makes
        the poller republish under the same uid; the subscriber's dedup
        window swallows it, so at-least-once tailing applies once."""
        eco, pub, sub, PubDoc, SubDoc = build_pipeline()
        pub.raw_session().insert(PubDoc, {"name": "a", "value": 1})
        eco.drain_all()
        pub.cdc_poller.cursor = 0
        assert pub.cdc_poller.poll() == 1  # republished, same uid
        sub.subscriber.drain()
        assert len(rows_of(SubDoc)) == 1


class TestQuiescence:
    def test_drain_all_tails_outboxes(self):
        """A raw write followed immediately by drain_all must land: the
        process is not quiescent while an outbox tail is non-empty."""
        eco, pub, sub, PubDoc, SubDoc = build_pipeline()
        pub.raw_session().insert(PubDoc, {"name": "a", "value": 1})
        assert not eco.cdc.idle()
        eco.drain_all()
        assert eco.cdc.idle()
        assert len(rows_of(SubDoc)) == 1

    def test_worker_fleet_idle_requires_empty_outbox(self):
        eco, pub, sub, PubDoc, SubDoc = build_pipeline()
        pub.raw_session().insert(PubDoc, {"name": "a", "value": 1})
        with WorkerFleet(eco, workers=2) as fleet:
            assert fleet.wait_until_idle(timeout=10.0)
        assert eco.cdc.idle()
        assert len(rows_of(SubDoc)) == 1


class TestShedExemption:
    def _exhausted_flow(self):
        flow = QueueFlow(
            "q", 10, FlowConfig(), MetricsRegistry(),
            mode_of={"pub": "weak"}.get,
        )
        for _ in range(flow.credits):
            flow.admit(self._message(), flow.low + 1)
        assert flow.credits == 0
        return flow

    @staticmethod
    def _message(cdc=None):
        return Message(
            app="pub",
            operations=[{"operation": "create", "types": ["Doc"], "id": 1,
                         "attributes": {"name": "x"}}],
            dependencies={},
            published_at=0.0,
            cdc=cdc,
        )

    def test_weak_cdc_message_is_never_shed(self):
        """Shedding a CDC message would turn an acknowledged raw write
        into silent divergence: its outbox entry is already durably
        committed, so the graduated zone throttles instead."""
        flow = self._exhausted_flow()
        assert flow.admit(self._message(), flow.low + 1) == SHED
        assert flow.admit(self._message(cdc=7), flow.low + 1) == ADMIT

    def test_cdc_admission_counts_as_throttled(self):
        flow = self._exhausted_flow()
        before = flow.throttled.value
        flow.admit(self._message(cdc=7), flow.low + 1)
        assert flow.throttled.value == before + 1


class TestAuditorTransit:
    def test_outbox_lag_is_transit_not_loss(self):
        """An audit taken mid-tail sees divergence, but the pending
        outbox entry counts as in transit — not the §6.5 signature."""
        eco, pub, sub, PubDoc, SubDoc = build_pipeline()
        with pub.controller():
            PubDoc.create(name="baseline", value=0)
        sub.subscriber.drain()
        pub.raw_session().insert(PubDoc, {"name": "pending", "value": 1})

        report = sub.audit_replication()
        lag = report.lag["pub"]
        assert lag.outbox_pending == 1
        assert lag.in_transit >= 1
        assert report.divergent_total == 1
        assert report.suspected_loss is False
        assert any("outbox_pending=1" in line
                   for line in report.summary_lines())

        eco.drain_all()
        healed = sub.audit_replication()
        assert healed.in_sync
        assert healed.lag["pub"].outbox_pending == 0

    def test_health_shows_an_unpolled_outbox_tail(self):
        """A poller that never runs leaves committed raw writes in the
        outbox: the link's health reading counts them, so ``watch``
        shows the tail of a dead poller."""
        eco, pub, sub, PubDoc, SubDoc = build_pipeline()
        for i in range(3):
            pub.raw_session().insert(PubDoc, {"name": f"raw{i}", "value": i})

        link = eco.monitor.health().link("pub", "sub")
        assert link.outbox_pending == 3
        assert link.to_dict()["outbox_pending"] == 3
        assert "outbox_pending=3" in link.summary_line()
        assert (link.queued, link.in_flight, link.in_transit) == (0, 0, 3)
        assert not link.breached  # the tail feeds no breach signal

        eco.drain_all()
        assert eco.monitor.health().link("pub", "sub").outbox_pending == 0


class TestPollCrash:
    def test_unknown_point_rejected(self):
        with pytest.raises(CdcError, match="unknown poller crash point"):
            PollCrash("mid-flight")

    def test_countdown_and_one_shot(self):
        injector = PollCrash("after-publish", after=2)
        injector.fire("before-publish")      # wrong point: no effect
        injector.fire("after-publish")       # 2 -> 1
        with pytest.raises(SimulatedCrash):
            injector.fire("after-publish")
        injector.fire("after-publish")       # fired latch: no re-raise

    def test_before_publish_crash_loses_nothing(self):
        eco, pub, sub, PubDoc, SubDoc = build_pipeline()
        pub.raw_session().insert(PubDoc, {"name": "a", "value": 1})
        pub.cdc_poller.injector = PollCrash("before-publish")
        with pytest.raises(SimulatedCrash):
            pub.cdc_poller.poll()
        assert pub.cdc_poller.cursor == 0  # nothing consumed pre-crash
        pub.cdc_poller.injector = None
        eco.drain_all()
        assert len(rows_of(SubDoc)) == 1
