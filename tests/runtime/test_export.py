"""Prometheus/JSON exposition round-trips for registry snapshots."""

import json

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.monitor import mangle, parse_prometheus, to_json, to_prometheus


def run_workload(flow=False):
    eco = Ecosystem()
    eco.enable_tracing()
    if flow:
        from repro.runtime.flow import FlowConfig

        eco.enable_flow(FlowConfig(capacity=64))
    _, pub, sub, User = build_replicated_pair(eco, model="User")
    with pub.controller():
        for i in range(5):
            User.create(name=f"u{i}")
    sub.subscriber.drain()
    return eco


class TestMangle:
    def test_prefix_and_dot_mangling(self):
        assert mangle("subscriber.sub.dep_wait") == "repro_subscriber_sub_dep_wait"
        assert mangle("a-b.c") == "repro_a_b_c"

    def test_pure_function_of_name(self):
        assert mangle("broker.routed") == mangle("broker.routed")


class TestRoundTrip:
    def test_counters_and_histograms_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("broker.routed").increment(7)
        histogram = registry.histogram("subscriber.sub.apply")
        histogram.extend([0.1, 0.2, 0.3, 0.4])
        parsed = parse_prometheus(to_prometheus(registry.snapshot()))
        assert parsed["repro_broker_routed"] == 7
        summary = parsed["repro_subscriber_sub_apply"]
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(1.0)
        assert summary["quantiles"]["0.5"] == pytest.approx(histogram.percentile(50))
        assert summary["quantiles"]["0.99"] == pytest.approx(histogram.percentile(99))

    def test_every_pipeline_instrument_survives_exposition(self):
        eco = run_workload()
        parsed = parse_prometheus(to_prometheus(eco.metrics.snapshot()))
        snapshot = eco.metrics.snapshot()
        assert snapshot  # the workload populated the registry
        for name, value in snapshot.items():
            exported = parsed[mangle(name)]
            if isinstance(value, dict):
                assert exported["count"] == value["count"]
            else:
                assert exported == value

    def test_names_stable_across_snapshots(self):
        eco = run_workload()
        first = set(parse_prometheus(to_prometheus(eco.metrics.snapshot())))
        # More traffic through the same pipeline: values move, the
        # exported name set does not.
        with eco.services["pub"].controller():
            eco.services["pub"].registry["User"].create(name="later")
        eco.services["sub"].subscriber.drain()
        second = set(parse_prometheus(to_prometheus(eco.metrics.snapshot())))
        assert first == second

    def test_type_headers_present(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        registry.histogram("h").record(1.0)
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_c counter" in text
        assert "# TYPE repro_h summary" in text
        assert 'repro_h{quantile="0.99"}' in text

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus("!!! not exposition\n")

    def test_gauges_round_trip_with_type_header(self):
        registry = MetricsRegistry()
        registry.gauge("flow.sub.credits").set(37)
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_flow_sub_credits gauge" in text
        assert parse_prometheus(text)["repro_flow_sub_credits"] == 37

    def test_flow_instruments_survive_exposition(self):
        """The ``flow.*`` family — counters, the batch-size histogram
        and the credits gauge — must round-trip like every other
        pipeline instrument."""
        eco = run_workload(flow=True)
        snapshot = eco.metrics.snapshot(prefix="flow.")
        assert "flow.sub.credits" in snapshot
        assert snapshot["flow.sub.admitted"] >= 5
        parsed = parse_prometheus(to_prometheus(eco.metrics.snapshot()))
        for name, value in snapshot.items():
            exported = parsed[mangle(name)]
            if isinstance(value, dict):
                assert exported["count"] == value["count"]
            else:
                assert exported == value


class TestJsonExposition:
    @staticmethod
    def report(eco):
        from repro.runtime.monitor import ClusterPlane

        return ClusterPlane(eco, "solo").install().snapshot()

    def test_document_carries_metrics_exemplars_and_health(self):
        eco = run_workload()
        payload = json.loads(to_json(self.report(eco)))
        shard = payload["shards"]["solo"]
        assert shard["metrics"]["broker.routed"] >= 5
        assert "exemplars" in shard
        health = shard["health"]
        assert health["links"][0]["publisher"] == "pub"
        assert health["links"][0]["status"] == "ok"

    def test_monitor_is_optional(self):
        eco = run_workload()
        from repro.runtime.monitor import ClusterPlane

        report = ClusterPlane(eco, "solo").install().snapshot(evaluate=False)
        payload = json.loads(to_json(report))
        assert payload["shards"]["solo"]["metrics"]["broker.routed"] >= 5
        assert "health" not in payload["shards"]["solo"]

    def test_flow_metrics_and_backpressure_in_json(self):
        eco = run_workload(flow=True)
        shard = json.loads(to_json(self.report(eco)))["shards"]["solo"]
        assert shard["metrics"]["flow.sub.admitted"] >= 5
        assert "flow.sub.credits" in shard["metrics"]
        link = shard["health"]["links"][0]
        assert link["backpressure"] == "open"
        assert link["credits"] == eco.broker.queue_for("sub").flow.credits


class TestLabelEscaping:
    """S1: hostile label values must not corrupt the exposition."""

    HOSTILE = [
        'back\\slash',
        'quo"te',
        'new\nline',
        '\\"} evil_metric 42\n# TYPE evil',
        'trailing\\',
        '',
    ]

    def test_escape_round_trips_hostile_values(self):
        from repro.runtime.monitor import (
            escape_label_value,
            unescape_label_value,
        )

        for value in self.HOSTILE:
            escaped = escape_label_value(value)
            assert "\n" not in escaped
            assert unescape_label_value(escaped) == value

    def test_format_labels_escapes_and_sorts(self):
        from repro.runtime.monitor import format_labels

        rendered = format_labels({"shard": 'sh"ard\n1', "app": "a\\b"})
        assert rendered == '{app="a\\\\b",shard="sh\\"ard\\n1"}'

    def test_hostile_shard_name_survives_exposition_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("broker.routed").increment(7)
        registry.histogram("subscriber.sub.dwell").record(0.25)
        hostile = 'shard"0\\prod\nnode'
        text = to_prometheus(registry.snapshot(), labels={"shard": hostile})
        # The exposition itself stays line-parseable: no raw newline or
        # unescaped quote leaked out of the label value.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert parse_prometheus(line + "\n") is not None
        parsed = parse_prometheus(text)
        from repro.runtime.monitor import format_labels

        key = "repro_broker_routed" + format_labels({"shard": hostile})
        assert parsed[key] == 7
        summary_key = "repro_subscriber_sub_dwell" + format_labels(
            {"shard": hostile}
        )
        summary = parsed[summary_key]
        assert summary["labels"] == {"shard": hostile}
        assert summary["count"] == 1
        assert summary["sum"] == pytest.approx(0.25)
        assert set(summary["quantiles"]) == {"0.5", "0.99"}

    def test_injection_attempt_stays_a_label_value(self):
        registry = MetricsRegistry()
        registry.counter("broker.routed").increment(1)
        injection = '"} repro_fake_metric 999\nrepro_other 1'
        text = to_prometheus(registry.snapshot(), labels={"shard": injection})
        parsed = parse_prometheus(text)
        # The payload stayed inside the label value: no sample *named*
        # after the injected metric exists, and only one sample parsed.
        assert not any(
            key.startswith("repro_fake_metric") for key in parsed
        )
        assert not any(key.startswith("repro_other") for key in parsed)
        from repro.runtime.monitor import format_labels

        key = "repro_broker_routed" + format_labels({"shard": injection})
        assert list(parsed) == [key]
        assert parsed[key] == 1


class TestSnapshotRendering:
    """The exposition renders from a snapshot, not the live registry: the
    text is byte-identical to what rendering the instruments gave."""

    HOSTILE = 'shard"0\\prod\nnode'

    #: The registry-based rendering of :meth:`registry`, unlabelled.
    REGISTRY_TEXT = (
        "# TYPE repro_broker_routed counter\nrepro_broker_routed 7\n"
        "# TYPE repro_subscriber_sub_processed counter\n"
        "repro_subscriber_sub_processed 3\n"
        "# TYPE repro_durability_wal_bytes gauge\n"
        "repro_durability_wal_bytes 0.125\n"
        "# TYPE repro_flow_sub_credits gauge\nrepro_flow_sub_credits 37\n"
        "# TYPE repro_monitor_pub_to_sub_lag summary\n"
        'repro_monitor_pub_to_sub_lag{quantile="0.5"} 0\n'
        'repro_monitor_pub_to_sub_lag{quantile="0.99"} 0\n'
        "repro_monitor_pub_to_sub_lag_sum 0\n"
        "repro_monitor_pub_to_sub_lag_count 0\n"
        "# TYPE repro_subscriber_sub_dwell summary\n"
        'repro_subscriber_sub_dwell{quantile="0.5"} 0.1\n'
        'repro_subscriber_sub_dwell{quantile="0.99"} 0.7\n'
        "repro_subscriber_sub_dwell_sum 1.013\n"
        "repro_subscriber_sub_dwell_count 4\n"
    )

    @staticmethod
    def registry():
        registry = MetricsRegistry()
        registry.counter("broker.routed").increment(7)
        registry.counter("subscriber.sub.processed").increment(3)
        registry.gauge("flow.sub.credits").set(37)
        registry.gauge("durability.wal.bytes").add(0.125)
        registry.histogram("subscriber.sub.dwell").extend(
            [0.1, 0.2, 0.7, 0.013]
        )
        registry.histogram("monitor.pub_to_sub.lag")
        return registry

    def test_summary_carries_exact_sum(self):
        summary = self.registry().snapshot()["subscriber.sub.dwell"]
        assert summary["sum"] == pytest.approx(1.013)

    def test_snapshot_rendering_equals_registry_rendering(self):
        text = to_prometheus(self.registry().snapshot())
        assert text == self.REGISTRY_TEXT
        assert parse_prometheus(text) == parse_prometheus(self.REGISTRY_TEXT)

    def test_labelled_rendering_equals_registry_rendering(self):
        from repro.runtime.monitor import format_labels

        labels = {"shard": self.HOSTILE}
        text = to_prometheus(self.registry().snapshot(), labels=labels)
        assert len(text.splitlines()) == len(self.REGISTRY_TEXT.splitlines())
        parsed = parse_prometheus(text)
        plain = parse_prometheus(self.REGISTRY_TEXT)
        suffix = format_labels(labels)
        assert set(parsed) == {name + suffix for name in plain}
        for name, value in plain.items():
            exported = parsed[name + suffix]
            if isinstance(value, dict):
                exported = dict(exported)
                assert exported.pop("labels") == labels
            assert exported == value
