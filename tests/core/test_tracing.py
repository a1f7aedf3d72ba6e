"""End-to-end tracing of the publish->route->apply pipeline."""

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.relational import PostgresLike
from repro.runtime.flow import FlowConfig
from repro.runtime import tracing
from repro.runtime.tracing import (
    MARK_ACKED,
    STAGE_APPLY,
    STAGE_COLLECT,
    STAGE_DEP_WAIT,
    STAGE_DWELL,
    STAGE_ENGINE_WRITE,
    STAGE_INTERCEPT,
    STAGE_REGISTER,
    STAGE_ROUTE,
    Trace,
    format_trace,
)
from repro.runtime.workers import SubscriberWorkerPool


def build(eco, pub_db=None):
    if pub_db is not None:
        eco.service("pub", database=pub_db)
    _, pub, sub, User = build_replicated_pair(eco, model="User")
    return pub, sub, User, sub.registry["User"]


class TestTracingDisabled:
    def test_no_trace_attached_by_default(self):
        eco = Ecosystem()
        pub, sub, User, SubUser = build(eco)
        probe = eco.broker.bind("probe", "pub")
        User.create(name="ada")
        message = probe.pop()
        assert message.trace is None
        assert eco.tracer.last() is None


class TestTracingEnabled:
    def test_single_write_covers_every_stage(self):
        self.check_single_write_covers_every_stage(flow=False)

    def test_single_write_covers_every_stage_with_flow_on(self):
        """Regression: flow on used to drop the ``dep_wait`` span and end
        the critical path in ``batch_apply`` even for one message."""
        self.check_single_write_covers_every_stage(flow=True)

    def check_single_write_covers_every_stage(self, flow):
        eco = Ecosystem()
        if flow:
            eco.enable_flow(FlowConfig())
        pub, sub, User, SubUser = build(eco)
        eco.enable_tracing()
        with pub.controller():
            User.create(name="ada")
        assert sub.subscriber.drain() == 1
        trace = eco.tracer.last()
        assert trace is not None and trace.app == "pub"
        stages = set(trace.stages())
        assert {
            STAGE_INTERCEPT,
            STAGE_COLLECT,
            STAGE_REGISTER,
            STAGE_ENGINE_WRITE,
            STAGE_ROUTE,
            STAGE_DWELL,
            STAGE_DEP_WAIT,
            STAGE_APPLY,
        } <= stages
        # Every message applies alone: there is no batch stage.
        assert "subscriber.batch_apply" not in stages
        assert all(span.duration >= 0 for span in trace.spans)
        # The intercept span subsumes collection, registration and the
        # engine write.
        assert trace.duration(STAGE_INTERCEPT) >= (
            trace.duration(STAGE_COLLECT)
            + trace.duration(STAGE_REGISTER)
            + trace.duration(STAGE_ENGINE_WRITE)
        )

    @pytest.mark.parametrize("flow", [False, True], ids=["flow-off", "flow-on"])
    def test_every_ordered_message_gets_a_dep_wait_sample(self, flow):
        """One ``dep_wait`` sample and span per applied causal message,
        zero-length when nothing blocked — so ``dep_wait_mean_ms`` means
        the same thing at every batch size. (Regression: with flow on,
        only a call that blocked in ``wait_satisfied`` recorded one.)"""
        eco = Ecosystem()
        if flow:
            eco.enable_flow(FlowConfig())
        pub, sub, User, SubUser = build(eco)
        eco.enable_tracing()
        with pub.controller():
            User.create(name="ada")
            User.create(name="bob")
        assert sub.subscriber.drain() == 2
        assert sub.subscriber.dep_wait.count == 2
        traces = eco.tracer.finished()
        assert len(traces) == 2
        for trace in traces:
            assert STAGE_DEP_WAIT in trace.stages()
            # Popped together or not, each applied alone: no batch stage.
            assert "subscriber.batch_apply" not in trace.stages()
        assert not hasattr(tracing, "STAGE_BATCH")

    def test_trace_survives_wire_round_trip(self):
        trace = Trace(app="pub")
        trace.add("publisher.intercept", 1.0, 0.5)
        trace.mark("queue.enqueued", 2.0)
        restored = Trace.from_dict(trace.to_dict())
        assert restored.app == "pub"
        assert restored.stages() == ["publisher.intercept"]
        assert restored.spans[0].duration == 0.5
        assert restored.marks["queue.enqueued"] == 2.0

    def test_ack_marked_under_threaded_workers(self):
        eco = Ecosystem()
        pub, sub, User, SubUser = build(eco)
        eco.enable_tracing()
        with SubscriberWorkerPool(sub, workers=2) as pool:
            for i in range(3):
                User.create(name=f"u{i}")
            assert pool.wait_until_idle(timeout=10)
        traces = eco.tracer.finished()
        assert len(traces) == 3
        for trace in traces:
            assert STAGE_APPLY in trace.stages()
            assert MARK_ACKED in trace.marks

    def test_transactional_publish_is_traced(self):
        eco = Ecosystem()
        pub, sub, User, SubUser = build(eco, pub_db=PostgresLike("p"))
        eco.enable_tracing()
        with pub.database.begin():
            User.create(name="a")
            User.create(name="b")
        assert sub.subscriber.drain() == 1
        trace = eco.tracer.last()
        stages = set(trace.stages())
        assert {STAGE_INTERCEPT, STAGE_COLLECT, STAGE_REGISTER, STAGE_APPLY} <= stages

    def test_format_trace_renders_all_spans(self):
        eco = Ecosystem()
        pub, sub, User, SubUser = build(eco)
        eco.enable_tracing()
        User.create(name="ada")
        sub.subscriber.drain()
        lines = format_trace(eco.tracer.last())
        text = "\n".join(lines)
        assert "publisher.intercept" in text
        assert "queue.dwell" in text
        assert "total" in lines[-1]

    def test_tracer_capacity_bounds_memory(self):
        eco = Ecosystem()
        pub, sub, User, SubUser = build(eco)
        eco.tracer._finished.clear()
        eco.enable_tracing()
        for i in range(5):
            User.create(name=f"u{i}")
        sub.subscriber.drain()
        assert len(eco.tracer.finished()) == 5
        eco.tracer.clear()
        assert eco.tracer.last() is None
