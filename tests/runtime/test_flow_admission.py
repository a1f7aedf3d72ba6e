"""Credit-based admission: watermarks, hysteresis, shed-weak-only, and
the graduated ladder ahead of the §4.4 kill cliff."""

from repro.broker import Message, SubscriberQueue
from repro.runtime.flow import FlowConfig, FlowController
from repro.runtime.flow.admission import (
    ADMIT,
    SHED,
    STATE_OPEN,
    STATE_SHEDDING,
    STATE_THROTTLED,
    QueueFlow,
)
from repro.runtime.metrics import MetricsRegistry


class StubRecorder:
    def __init__(self):
        self.anomalies = []
        self.events = []

    def anomaly(self, kind, **data):
        self.anomalies.append((kind, data))

    def record_event(self, kind, **data):
        self.events.append((kind, data))


def make_message(op_id=1, app="pub", deps=None, **kwargs):
    return Message(
        app=app,
        operations=[{"operation": "create", "types": ["User"], "id": op_id,
                     "attributes": {"name": "x"}}],
        dependencies=dict(deps or {}),
        published_at=0.0,
        **kwargs,
    )


def make_flow(capacity=10, modes=None, recorder=None):
    registry = MetricsRegistry()
    modes = modes or {"pub": "weak"}
    flow = QueueFlow(
        "q", capacity, FlowConfig(), registry,
        mode_of=modes.get, recorder=recorder,
    )
    return flow, registry


class TestCredits:
    def test_watermarks_and_initial_credits(self):
        flow, _ = make_flow(capacity=10)  # defaults: hw 0.75, lw 0.5
        assert flow.high == 7 and flow.low == 5
        assert flow.credits == 7 and flow.state == STATE_OPEN

    def test_admission_consumes_one_credit_per_message(self):
        # Depth above the low watermark: no refill, credits just drain.
        flow, registry = make_flow(capacity=10)
        for _ in range(3):
            assert flow.admit(make_message(), flow.low + 1) == ADMIT
        assert flow.credits == 4
        assert registry.value("flow.q.admitted") == 3
        assert registry.gauge("flow.q.credits").value == 4

    def test_low_depth_admission_keeps_credits_topped_up(self):
        # At or below the low watermark every admit refills first, so a
        # healthy queue never drifts toward the shedding zone.
        flow, _ = make_flow(capacity=10)
        for _ in range(50):
            assert flow.admit(make_message(), flow.low) == ADMIT
        assert flow.credits == flow.high - 1

    def test_depth_at_high_watermark_sheds_even_with_credits(self):
        """The guard that keeps shedding ahead of the kill: credits in
        hand do not admit past the high watermark."""
        flow, registry = make_flow(capacity=10)
        assert flow.credits > 0
        assert flow.admit(make_message(), flow.high) == SHED
        assert flow.state == STATE_SHEDDING
        assert registry.value("flow.q.shed") == 1

    def _exhaust(self, flow):
        for _ in range(flow.credits):
            flow.admit(make_message(), flow.low + 1)

    def test_exhausted_credits_shed_weak(self):
        flow, registry = make_flow(capacity=10)
        self._exhaust(flow)
        assert flow.credits == 0
        assert flow.admit(make_message(), flow.low + 1) == SHED
        assert registry.value("flow.q.shed") == 1

    def test_refill_hysteresis_below_low_watermark(self):
        flow, _ = make_flow(capacity=10)
        self._exhaust(flow)
        flow.admit(make_message(), flow.low + 1)  # shed: state leaves open
        assert flow.state == STATE_SHEDDING
        # Draining to just above low does NOT refill (hysteresis)...
        assert flow.admit(make_message(), flow.low + 1) == SHED
        # ...but at/below low the credits refill and admission reopens.
        assert flow.admit(make_message(), flow.low) == ADMIT
        assert flow.state == STATE_OPEN
        assert flow.credits == flow.high - 1

    def test_reset_restores_open_state(self):
        flow, _ = make_flow(capacity=10)
        for depth in range(flow.high + 2):
            flow.admit(make_message(), depth)
        assert flow.state == STATE_SHEDDING
        flow.reset()
        assert flow.credits == flow.high and flow.state == STATE_OPEN

    def test_capacity_none_disables_admission(self):
        flow, registry = make_flow(capacity=None)
        for depth in range(1000):
            assert flow.admit(make_message(), depth) == ADMIT
        assert registry.value("flow.q.shed") == 0


class TestModes:
    def test_causal_and_global_are_throttled_never_shed(self):
        for mode in ("causal", "global"):
            flow, registry = make_flow(capacity=10, modes={"pub": mode})
            for depth in range(flow.high):
                flow.admit(make_message(), depth)
            assert flow.admit(make_message(), flow.high) == ADMIT
            assert flow.state == STATE_THROTTLED
            assert registry.value("flow.q.throttled") == 1
            assert registry.value("flow.q.shed") == 0

    def test_unknown_publisher_defaults_to_weak(self):
        flow, _ = make_flow(capacity=10, modes={})
        assert flow.admit(make_message(app="ghost"), flow.high) == SHED


class TestShedDeficitLedger:
    """Shedding leaves a deliberate subscriber-side counter deficit
    (the publisher bumped its store at publish time); the ledger lets
    lag audits forgive exactly that, and no more."""

    def test_shed_records_the_messages_counter_bumps(self):
        flow, _ = make_flow(capacity=10)
        assert flow.admit(make_message(deps={"h1": 3}), flow.high) == SHED
        assert flow.reconcile_shed("pub", {"h1": 5}) == {"h1": 1}

    def test_reconcile_trims_to_the_observed_deficit(self):
        flow, _ = make_flow(capacity=10)
        for version in (3, 4, 5):
            flow.admit(make_message(deps={"h1": version}), flow.high)
        # Only 2 of the 3 shed bumps are still unhealed: forgive 2.
        assert flow.reconcile_shed("pub", {"h1": 2}) == {"h1": 2}
        # Repair healed the key entirely: the entry drops out and can
        # never mask a genuinely lost later message.
        assert flow.reconcile_shed("pub", {}) == {}
        assert flow.reconcile_shed("pub", {"h1": 9}) == {}

    def test_admitted_messages_leave_no_deficit(self):
        flow, _ = make_flow(capacity=10)
        assert flow.admit(make_message(deps={"h1": 1}), 0) == ADMIT
        assert flow.reconcile_shed("pub", {"h1": 5}) == {}

    def test_unknown_app_reconciles_empty(self):
        flow, _ = make_flow(capacity=10)
        assert flow.reconcile_shed("ghost", {"h1": 1}) == {}

    def test_reset_clears_the_ledger(self):
        flow, _ = make_flow(capacity=10)
        flow.admit(make_message(deps={"h1": 1}), flow.high)
        flow.reset()
        assert flow.reconcile_shed("pub", {"h1": 5}) == {}


class TestRecorderAndDelay:
    def _exhaust(self, flow):
        for _ in range(flow.credits):
            flow.admit(make_message(), flow.low + 1)

    def test_shedding_anomaly_and_recovery_event(self):
        recorder = StubRecorder()
        flow, _ = make_flow(capacity=10, recorder=recorder)
        self._exhaust(flow)
        flow.admit(make_message(), flow.low + 1)  # shed
        assert [kind for kind, _ in recorder.anomalies] == ["flow.shedding"]
        flow.admit(make_message(), flow.low)  # refill: recovered
        assert [kind for kind, _ in recorder.events] == ["flow.recovered"]


class TestQueueIntegration:
    def _flowed_queue(self, modes, max_size=10):
        controller = FlowController(
            FlowConfig(), MetricsRegistry(), mode_of=modes.get
        )
        queue = SubscriberQueue("q", max_size=max_size)
        queue.flow = controller.for_queue(queue)
        return queue, controller

    def test_for_queue_caches_and_uses_max_size(self):
        queue, controller = self._flowed_queue({"pub": "weak"})
        assert controller.for_queue(queue) is queue.flow
        assert queue.flow.capacity == 10

    def test_weak_flood_sheds_instead_of_killing(self):
        """The tentpole behavior: a weak flood stabilises at the high
        watermark and the §4.4 kill never fires."""
        queue, controller = self._flowed_queue({"pub": "weak"})
        for i in range(100):
            queue.publish(make_message(op_id=i))
        assert not queue.decommissioned
        assert len(queue) == queue.flow.high
        assert controller.metrics.value("flow.q.shed") == 100 - queue.flow.high

    def test_causal_flood_still_hits_the_kill_cliff(self):
        """Stronger modes are never shed, so the kill remains the last
        resort exactly as before."""
        queue, _ = self._flowed_queue({"pub": "causal"})
        for i in range(100):
            queue.publish(make_message(op_id=i))
        assert queue.decommissioned

    def test_config_capacity_overrides_queue_max_size(self):
        controller = FlowController(
            FlowConfig(capacity=20), MetricsRegistry(),
            mode_of={"pub": "weak"}.get,
        )
        queue = SubscriberQueue("q", max_size=50)
        queue.flow = controller.for_queue(queue)
        assert queue.flow.capacity == 20


class TestShedDeficitAudits:
    """End to end: deliberate shedding must not read as the §6.5 loss
    signature in the lag audits, while the divergence it causes stays
    visible and repairable."""

    def _ecosystem(self):
        from repro.apps import build_replicated_pair
        from repro.core import Ecosystem

        eco = Ecosystem()
        eco.enable_flow(FlowConfig(capacity=6))
        _, pub, sub, Item = build_replicated_pair(eco, model="Item", mode="weak")
        return eco, pub, sub, Item, sub.registry["Item"]

    def test_shed_deficit_is_forgiven_and_repair_heals_it(self):
        eco, pub, sub, Item, SubItem = self._ecosystem()
        with pub.controller():
            for i in range(12):
                Item.create(name=f"i{i}")
        assert eco.metrics.value("flow.sub.shed") > 0
        sub.subscriber.drain()

        report = sub.audit_replication()
        lag = report.lag["pub"]
        assert lag.version_lag == 0       # deliberate sheds are not loss
        assert lag.shed_deficit > 0       # ...but stay visible
        assert report.divergent_total > 0  # the data really is missing

        entry = next(
            link for link in eco.monitor.health().links
            if (link.publisher, link.subscriber) == ("pub", "sub")
        )
        assert entry.version_lag == 0
        assert entry.shed_deficit > 0
        assert entry.to_dict()["shed_deficit"] == entry.shed_deficit

        result = sub.repair_replication(report=report)
        assert result.verified_in_sync
        final = sub.audit_replication()
        assert final.lag["pub"].version_lag == 0
        # Repair healed every shed key: the ledger trimmed to nothing.
        assert final.lag["pub"].shed_deficit == 0
