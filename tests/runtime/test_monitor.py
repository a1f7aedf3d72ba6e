"""LagMonitor: per-link SLO evaluation edges, breach transitions, and
the end-to-end acceptance scenario (drop -> wedge -> breach -> dump)."""

from types import SimpleNamespace

import pytest

from repro.clock import VirtualClock
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model
from repro.runtime.monitor import FlightRecorder, LinkSLO, SlidingWindow, load_dump


def build(eco):
    pub = eco.service("pub", database=MongoLike("p"))

    @pub.model(publish=["name", "score"], name="User")
    class User(Model):
        name = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("s"))

    @sub.model(subscribe={"from": "pub", "fields": ["name", "score"]}, name="User")
    class SubUser(Model):
        name = Field(str)
        score = Field(int, default=0)

    return pub, sub, User


def virtual_eco(**kwargs):
    clock = VirtualClock(start=1000.0)
    eco = Ecosystem(clock=clock, **kwargs)
    pub, sub, User = build(eco)
    return eco, clock, pub, sub, User


def stub(clock, lag, dwell=None):
    """A message-shaped object for driving observe_applied directly."""
    return SimpleNamespace(app="pub", published_at=clock.now() - lag, dwell=dwell)


class TestSlidingWindow:
    def test_empty_window(self):
        window = SlidingWindow(8)
        assert len(window) == 0
        assert window.percentile(99) == 0.0
        assert window.over_fraction(0.0) == 0.0

    def test_eviction_keeps_most_recent(self):
        window = SlidingWindow(3)
        for value in (1.0, 2.0, 3.0, 4.0):
            window.record(value)
        assert window.values() == [2.0, 3.0, 4.0]

    def test_nearest_rank_percentiles(self):
        window = SlidingWindow(200)
        for value in range(100, 0, -1):
            window.record(float(value))
        assert window.percentile(50) == 50.0
        assert window.percentile(99) == 99.0
        assert window.percentile(100) == 100.0

    def test_size_validated(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)


class TestSLOEdges:
    def test_empty_window_is_no_data_not_breached(self):
        eco, clock, pub, sub, User = virtual_eco()
        report = eco.monitor.health()
        link = report.link("pub", "sub")
        assert link is not None
        assert link.status == "no_data"
        assert not link.breached
        assert not report.breached
        assert link.samples == 0

    def test_single_sample_under_threshold_is_ok(self):
        eco, clock, pub, sub, User = virtual_eco()
        eco.monitor.set_slo("pub", "sub", LinkSLO(p99_lag=0.5))
        eco.monitor.observe_applied("sub", stub(clock, lag=0.1))
        link = eco.monitor.health().link("pub", "sub")
        assert link.status == "ok"
        assert link.samples == 1
        assert link.p50 == pytest.approx(0.1)
        assert link.p99 == pytest.approx(0.1)

    def test_p99_exactly_at_threshold_is_compliant(self):
        eco, clock, pub, sub, User = virtual_eco()
        eco.monitor.set_slo("pub", "sub", LinkSLO(p99_lag=0.5))
        eco.monitor.observe_applied("sub", stub(clock, lag=0.5))
        link = eco.monitor.health().link("pub", "sub")
        assert link.p99 == pytest.approx(0.5)
        assert link.status == "ok"
        assert link.over_fraction == 0.0

    def test_strictly_over_threshold_breaches(self):
        eco, clock, pub, sub, User = virtual_eco()
        eco.monitor.set_slo("pub", "sub", LinkSLO(p99_lag=0.5))
        eco.monitor.observe_applied("sub", stub(clock, lag=0.6))
        link = eco.monitor.health().link("pub", "sub")
        assert link.breached
        assert "p99_lag" in link.reasons

    def test_burn_rate_breach_without_p99_breach(self):
        eco, clock, pub, sub, User = virtual_eco()
        eco.monitor.set_slo(
            "pub", "sub", LinkSLO(p99_lag=1.0, over_budget=0.001, window=2048)
        )
        for _ in range(995):
            eco.monitor.observe_applied("sub", stub(clock, lag=0.1))
        for _ in range(5):
            eco.monitor.observe_applied("sub", stub(clock, lag=2.0))
        link = eco.monitor.health().link("pub", "sub")
        # 0.5% of the window is over a 0.1% budget: burn rate 5, yet the
        # p99 sample itself is still clean.
        assert link.p99 == pytest.approx(0.1)
        assert link.burn_rate == pytest.approx(5.0)
        assert link.reasons == ["burn_rate"]

    def test_wedged_link_breaches_via_stall_with_empty_window(self):
        eco, clock, pub, sub, User = virtual_eco()
        eco.monitor.set_slo("pub", "sub", LinkSLO(stall_after=5.0))
        with pub.controller():
            User.create(name="ada")
        clock.advance(10.0)  # nobody drains: the message ages in queue
        link = eco.monitor.health().link("pub", "sub")
        assert link.samples == 0
        assert link.queued == 1
        assert link.oldest_in_transit == pytest.approx(10.0)
        assert link.status == "breached"
        assert link.reasons == ["stalled"]

    def test_breach_transition_emits_anomaly_once_then_recovery(self):
        eco, clock, pub, sub, User = virtual_eco()
        eco.monitor.set_slo("pub", "sub", LinkSLO(p99_lag=0.5, window=4))
        eco.monitor.observe_applied("sub", stub(clock, lag=2.0))
        eco.monitor.health()
        eco.monitor.health()  # still breached: no second anomaly
        breaches = eco.recorder.events("slo.breach")
        assert len(breaches) == 1
        assert breaches[0].severity == "anomaly"
        assert breaches[0].data["publisher"] == "pub"
        # Four clean samples evict the bad one from the 4-slot window.
        for _ in range(4):
            eco.monitor.observe_applied("sub", stub(clock, lag=0.1))
        assert not eco.monitor.health().breached
        recoveries = eco.recorder.events("slo.recovered")
        assert len(recoveries) == 1
        assert recoveries[0].severity == "info"
        assert len(eco.recorder.events("slo.breach")) == 1

    def test_dwell_feeds_the_link_dwell_histogram(self):
        eco, clock, pub, sub, User = virtual_eco()
        eco.monitor.observe_applied("sub", stub(clock, lag=0.1, dwell=0.25))
        histogram = eco.metrics.histogram("monitor.pub_to_sub.dwell")
        assert histogram.count == 1
        assert histogram.total() == pytest.approx(0.25)

    def test_set_slo_after_traffic_takes_effect_on_the_next_apply(self):
        """The hot path keeps a link's window and histograms resolved;
        a new SLO must drop them — new window size, new threshold."""
        eco, clock, pub, sub, User = virtual_eco()
        monitor = eco.monitor
        for _ in range(5):
            monitor.observe_applied("sub", stub(clock, lag=0.1))
        assert monitor.health().link("pub", "sub").samples == 5
        monitor.set_slo("pub", "sub", LinkSLO(p99_lag=0.05, window=2))
        for lag in (0.2, 0.3, 0.4):
            monitor.observe_applied("sub", stub(clock, lag=lag))
        link = monitor.health().link("pub", "sub")
        assert link.samples == 2  # the new window, holding the last two
        assert link.p99 == pytest.approx(0.4)
        assert "p99_lag" in link.reasons
        histogram = eco.metrics.histogram("monitor.pub_to_sub.lag")
        assert histogram.exemplar_threshold == 0.05
        assert histogram.count == 8  # one instrument across both SLOs

    def test_hot_path_records_into_the_registrys_own_instruments(self):
        """Readers by name and ``MetricsRegistry.reset`` must see — and
        reset — the very histograms the resolved hot path records into."""
        eco, clock, pub, sub, User = virtual_eco()
        dwell = eco.metrics.histogram("monitor.pub_to_sub.dwell")
        lag = eco.metrics.histogram("monitor.pub_to_sub.lag")
        eco.monitor.observe_applied("sub", stub(clock, lag=0.1, dwell=0.25))
        assert (lag.count, dwell.count) == (1, 1)
        eco.metrics.reset()
        assert (lag.count, dwell.count) == (0, 0)
        eco.monitor.observe_applied("sub", stub(clock, lag=0.1, dwell=0.5))
        assert (lag.count, dwell.count) == (1, 1)
        assert eco.metrics.histogram(
            "monitor.pub_to_sub.dwell"
        ).total() == pytest.approx(0.5)

    def test_negative_clock_skew_clamps_to_zero(self):
        eco, clock, pub, sub, User = virtual_eco()
        eco.monitor.observe_applied("sub", stub(clock, lag=-3.0))
        link = eco.monitor.health().link("pub", "sub")
        assert link.p99 == 0.0
        assert link.status == "ok"

    def test_report_shapes(self):
        eco, clock, pub, sub, User = virtual_eco()
        eco.monitor.observe_applied("sub", stub(clock, lag=0.1))
        report = eco.monitor.health()
        assert report.link("pub", "nope") is None
        payload = report.to_dict()
        assert payload["breached"] is False
        assert payload["links"][0]["publisher"] == "pub"
        lines = report.summary_lines()
        assert any("pub -> sub" in line for line in lines)


class TestAcceptance:
    """ISSUE acceptance: a two-service workload reports per-link health;
    an injected broker drop wedges the causal link, flips it to breached,
    and the breach dump carries an exemplar-linked trace."""

    def test_drop_wedges_link_and_dump_links_exemplar_trace(self, tmp_path):
        clock = VirtualClock(start=1000.0)
        recorder = FlightRecorder(dump_dir=str(tmp_path), clock=clock)
        eco = Ecosystem(clock=clock, recorder=recorder)
        pub, sub, User = build(eco)
        eco.enable_tracing()
        eco.monitor.set_slo(
            "pub", "sub", LinkSLO(p99_lag=0.5, stall_after=5.0, window=64)
        )

        with pub.controller():
            users = [User.create(name=f"u{i}", score=i) for i in range(3)]
        sub.subscriber.drain()
        link = eco.monitor.health().link("pub", "sub")
        assert link.status == "ok"
        assert link.samples == 3

        # One slow apply: published now, applied two virtual seconds
        # later — over the SLO, so the lag histogram captures an exemplar
        # naming this very message.
        with pub.controller():
            users[0].score = 100
            users[0].save()
        slow_uid = sub.subscriber.queue.peek_all()[0].uid
        clock.advance(2.0)
        assert sub.subscriber.drain() == 1

        # The §6.5 injection: drop one write-message, then a follow-up
        # write to the same object wedges the causal queue forever.
        eco.broker.drop_next(1)
        with pub.controller():
            users[1].score = 101
            users[1].save()
        with pub.controller():
            users[1].score = 102
            users[1].save()
        assert sub.subscriber.drain() == 0  # wedged behind the lost message
        clock.advance(10.0)

        report = eco.monitor.health()
        link = report.link("pub", "sub")
        assert link.breached
        assert "stalled" in link.reasons
        assert "p99_lag" in link.reasons
        assert link.queued == 1

        # The breach transition froze the evidence to one JSONL artifact.
        assert len(recorder.dumps) == 1
        entries = load_dump(recorder.dumps[0])
        kinds = {e["kind"] for e in entries if e["type"] == "event"}
        assert "broker.drop" in kinds
        assert "slo.breach" in kinds
        exemplars = [
            e
            for e in entries
            if e["type"] == "exemplar" and e["metric"] == "monitor.pub_to_sub.lag"
        ]
        assert exemplars and exemplars[0]["trace_id"] == slow_uid
        # ... and the ring still holds the full trace the exemplar names.
        trace_ids = {e["trace_id"] for e in entries if e["type"] == "trace"}
        assert slow_uid in trace_ids
