"""Sampled always-on tracing: deterministic head-based decisions,
exemplar attachment through the live pipeline, and trace release."""

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.runtime.tracing import MARK_ACKED, Tracer


def build(eco):
    _, pub, sub, User = build_replicated_pair(eco, model="User")
    return pub, sub, User


class TestSamplingDecision:
    def test_same_seed_and_rate_give_identical_sampled_set(self):
        uids = [f"pub:{i}" for i in range(2000)]
        a = Tracer(sample_rate=0.1, seed=42)
        b = Tracer(sample_rate=0.1, seed=42)
        sampled_a = {uid for uid in uids if a.sampled(uid)}
        sampled_b = {uid for uid in uids if b.sampled(uid)}
        assert sampled_a == sampled_b
        assert 0 < len(sampled_a) < len(uids)

    def test_different_seed_changes_the_set(self):
        uids = [f"pub:{i}" for i in range(2000)]
        a = {u for u in uids if Tracer(sample_rate=0.1, seed=1).sampled(u)}
        b = {u for u in uids if Tracer(sample_rate=0.1, seed=2).sampled(u)}
        assert a != b

    def test_rate_edges(self):
        assert Tracer(sample_rate=1.0).sampled("anything")
        assert not Tracer(sample_rate=0.0).sampled("anything")

    def test_rate_roughly_matches_fraction(self):
        uids = [f"pub:{i}" for i in range(10_000)]
        tracer = Tracer(sample_rate=0.25, seed=0)
        fraction = sum(1 for u in uids if tracer.sampled(u)) / len(uids)
        assert 0.2 < fraction < 0.3

    def test_enable_validates_rate(self):
        import pytest

        with pytest.raises(ValueError):
            Tracer().enable(sample_rate=1.5)


class TestSampledPipeline:
    def test_partial_rate_traces_only_sampled_messages(self):
        eco = Ecosystem()
        pub, sub, User = build(eco)
        eco.enable_tracing(sample_rate=0.3, seed=9)
        probe = eco.broker.bind("probe", "pub")
        with pub.controller():
            for i in range(40):
                User.create(name=f"u{i}")
        tracer = eco.tracer
        carried = {m.uid for m in probe.peek_all() if m.trace is not None}
        expected = {m.uid for m in probe.peek_all() if tracer.sampled(m.uid)}
        assert carried == expected
        assert 0 < len(carried) < 40
        sub.subscriber.drain()
        finished = {t.trace_id for t in tracer.finished()}
        # Traces adopt the message uid as their id, so the finished set
        # is exactly the sampled uid set.
        assert finished == expected

    def test_zero_rate_costs_no_subscriber_side_traces(self):
        eco = Ecosystem()
        pub, sub, User = build(eco)
        eco.enable_tracing(sample_rate=0.0)
        with pub.controller():
            User.create(name="ada")
        sub.subscriber.drain()
        assert eco.tracer.finished() == []

    def test_trace_released_from_message_after_ack(self):
        eco = Ecosystem()
        pub, sub, User = build(eco)
        eco.enable_tracing()
        with pub.controller():
            User.create(name="ada")
        queue = sub.subscriber.queue
        message = queue.pop()
        assert message.trace is not None
        assert sub.subscriber.process_message(message)
        queue.ack(message)
        # The finished trace lives on in the tracer (with its ack mark);
        # the message itself no longer pins it.
        assert message.trace is None
        trace = eco.tracer.last()
        assert trace is not None
        assert MARK_ACKED in trace.marks

    def test_finished_traces_flow_to_flight_recorder_sink(self):
        eco = Ecosystem()
        pub, sub, User = build(eco)
        eco.enable_tracing()
        with pub.controller():
            for i in range(3):
                User.create(name=f"u{i}")
        sub.subscriber.drain()
        recorded = eco.recorder.traces()
        assert len(recorded) == 3
        assert [t.trace_id for t in recorded] == [
            t.trace_id for t in eco.tracer.finished()
        ]


class TestPipelineExemplars:
    def test_slow_apply_links_exemplar_to_offending_message(self):
        eco = Ecosystem()
        pub, sub, User = build(eco)
        eco.enable_tracing()
        # Arm the apply histogram so every observation is "slow".
        sub.subscriber.apply_time.exemplar_threshold = -1.0
        with pub.controller():
            User.create(name="ada")
        probe_uids = {m.uid for m in sub.subscriber.queue.peek_all()}
        sub.subscriber.drain()
        exemplars = sub.subscriber.apply_time.exemplars()
        assert len(exemplars) == 1
        assert exemplars[0]["trace_id"] in probe_uids
