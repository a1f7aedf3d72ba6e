"""FlightRecorder rings, eviction order, and the JSONL anomaly dump."""

import json

from repro.runtime.monitor import FlightRecorder, load_dump
from repro.runtime.tracing import Trace


class TestRings:
    def test_event_ring_evicts_oldest_first(self):
        recorder = FlightRecorder(event_capacity=3)
        for i in range(5):
            recorder.record_event("tick", n=i)
        events = recorder.events()
        assert [e.data["n"] for e in events] == [2, 3, 4]
        # seq numbers keep counting across evictions.
        assert [e.seq for e in events] == [3, 4, 5]

    def test_trace_ring_evicts_oldest_first(self):
        recorder = FlightRecorder(trace_capacity=2)
        traces = [Trace(trace_id=f"t{i}") for i in range(4)]
        for trace in traces:
            recorder.record_trace(trace)
        assert [t.trace_id for t in recorder.traces()] == ["t2", "t3"]

    def test_event_kind_filter_and_anomalies(self):
        recorder = FlightRecorder()
        recorder.record_event("broker.drop", uid="pub:1")
        recorder.anomaly("worker.gave_up", uid="pub:2")
        assert [e.kind for e in recorder.events("broker.drop")] == ["broker.drop"]
        anomalies = recorder.anomalies()
        assert [e.kind for e in anomalies] == ["worker.gave_up"]
        assert anomalies[0].severity == "anomaly"

    def test_clear(self):
        recorder = FlightRecorder()
        recorder.record_event("x")
        recorder.record_trace(Trace())
        recorder.clear()
        assert recorder.events() == [] and recorder.traces() == []


class TestDump:
    def test_anomaly_triggers_jsonl_dump(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        recorder.record_event("broker.drop", uid="pub:9", queue="sub")
        trace = Trace(app="pub", trace_id="pub:9")
        trace.add("subscriber.apply", 1.0, 0.25)
        recorder.record_trace(trace)
        recorder.anomaly("slo.breach", publisher="pub", subscriber="sub")

        assert len(recorder.dumps) == 1
        lines = load_dump(recorder.dumps[0])
        meta = lines[0]
        assert meta["type"] == "meta"
        assert meta["reason"] == "slo.breach"
        assert meta["events"] == 2 and meta["traces"] == 1
        kinds = [entry["kind"] for entry in lines if entry["type"] == "event"]
        assert kinds == ["broker.drop", "slo.breach"]
        dumped_traces = [e for e in lines if e["type"] == "trace"]
        assert dumped_traces[0]["trace_id"] == "pub:9"
        assert dumped_traces[0]["spans"][0]["stage"] == "subscriber.apply"

    def test_info_events_do_not_dump(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        recorder.record_event("repair.run", objects_repaired=3)
        assert recorder.dumps == []

    def test_no_dump_dir_is_memory_only(self):
        recorder = FlightRecorder()
        recorder.anomaly("slo.breach")
        assert recorder.dumps == []
        assert recorder.dump() is None

    def test_dump_rate_limit(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path), dump_min_interval=3600)
        recorder.anomaly("first")
        recorder.anomaly("second")  # within the interval: suppressed
        assert len(recorder.dumps) == 1
        recorder.dump(reason="manual")  # explicit dumps always run
        assert len(recorder.dumps) == 2

    def test_dump_carries_registry_exemplars(self, tmp_path):
        from repro.runtime.metrics import MetricsRegistry
        from repro.runtime.tracing import activate_trace

        registry = MetricsRegistry()
        histogram = registry.histogram("monitor.pub_to_sub.lag")
        histogram.exemplar_threshold = 0.0
        with activate_trace(Trace(trace_id="pub:13")):
            histogram.record(4.2)
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        recorder.registry = registry
        recorder.anomaly("slo.breach")
        exemplars = [
            e for e in load_dump(recorder.dumps[0]) if e["type"] == "exemplar"
        ]
        assert exemplars[0]["metric"] == "monitor.pub_to_sub.lag"
        assert exemplars[0]["trace_id"] == "pub:13"

    def test_dump_lines_are_valid_json(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        recorder.anomaly("kind with spaces/and:punct")
        path = recorder.dumps[0]
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                json.loads(line)
