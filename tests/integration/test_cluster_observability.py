"""End-to-end cluster observability over real OS processes.

Both tests fork the full 2-shard demo topology: one distributed trace is
assembled from spans recorded in two different interpreters, and one
injected SLO breach produces a correlated incident directory containing
a flight-recorder dump from *every* shard.
"""

import glob
import os

import pytest

from repro.runtime.monitor import load_dump
from repro.runtime.tracing import (
    PIPELINE_STAGES,
    STAGE_APPLY,
    STAGE_FORWARD,
    STAGE_ROUTE,
)
from repro.runtime.transport.demo import run_demo, run_trace_demo


class TestCrossShardTrace:
    @pytest.fixture(scope="class")
    def assembled(self):
        return run_trace_demo(operations=20)

    def test_trace_spans_both_processes(self, assembled):
        assert assembled is not None and assembled["found"]
        assert assembled["missing"] == []
        assert set(assembled["shards"]) == {"shard0", "shard1"}
        shards_with_spans = {span["shard"] for span in assembled["spans"]}
        assert shards_with_spans == {"shard0", "shard1"}

    def test_spans_cover_the_pipeline_across_the_boundary(self, assembled):
        stages = {span["stage"] for span in assembled["spans"]}
        assert STAGE_ROUTE in stages
        assert STAGE_APPLY in stages
        # Every stage is one the pipeline defines (plus control.* ops).
        for stage in stages:
            assert stage in PIPELINE_STAGES or stage.startswith("control.")

    def test_normalized_timeline_is_causal(self, assembled):
        by_stage = {}
        for span in assembled["spans"]:
            by_stage.setdefault(span["stage"], []).append(span)
        route_start = min(s["start"] for s in by_stage[STAGE_ROUTE])
        for apply_span in by_stage[STAGE_APPLY]:
            assert apply_span["start"] >= route_start
        assert assembled["end_to_end"] > 0.0

    def test_each_forward_precedes_its_remote_route(self, assembled):
        # One clock on one host: the k-th forward on the origin starts
        # before the k-th route on the receiving shard, and every
        # forwarded delivery is one hop.
        forwards = [
            s for s in assembled["spans"] if s["stage"] == STAGE_FORWARD
        ]
        origins = {s["shard"] for s in forwards}
        arrivals = [
            s for s in assembled["spans"]
            if s["stage"] == STAGE_ROUTE and s["shard"] not in origins
        ]
        assert forwards and len(arrivals) == len(forwards)
        for forward, route in zip(forwards, arrivals):
            assert forward["start"] < route["start"]
        assert len(assembled["hops"]) == len(forwards)

    def test_critical_path_crosses_shards(self, assembled):
        path = assembled["critical_path"]
        assert path, "critical path should not be empty"
        assert len({entry["shard"] for entry in path}) == 2
        assert path[-1]["stage"] == STAGE_APPLY

    def test_hops_connect_the_two_shards(self, assembled):
        pairs = {(hop["from"], hop["to"]) for hop in assembled["hops"]}
        assert any(a != b for a, b in pairs)


class TestCorrelatedPostmortem:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        incident_dir = str(tmp_path_factory.mktemp("incident"))
        results = run_demo(
            operations=20, breach_shard="shard1", incident_dir=incident_dir
        )
        return incident_dir, results

    def test_breach_was_injected_and_detected(self, outcome):
        _, results = outcome
        breach = results["shards"]["shard1"]["verify"]["breach"]
        assert breach["injected"]
        assert breach["breached"]
        assert breach["dumps"], "auto-dump should have fired"

    def test_every_shard_dumped_into_the_same_incident_dir(self, outcome):
        incident_dir, _ = outcome
        incidents = glob.glob(
            os.path.join(incident_dir, "incidents", "incident-shard1-*")
        )
        assert len(incidents) == 1, incidents
        assert "slo.breach" in os.path.basename(incidents[0])
        members = sorted(os.listdir(incidents[0]))
        assert members == ["shard0.jsonl", "shard1.jsonl"]

    def test_dumps_parse_and_carry_the_shared_reason(self, outcome):
        incident_dir, _ = outcome
        incident = glob.glob(
            os.path.join(incident_dir, "incidents", "incident-shard1-*")
        )[0]
        for shard in ("shard0", "shard1"):
            records = load_dump(os.path.join(incident, f"{shard}.jsonl"))
            assert records, f"{shard} dump is empty"
            meta = records[0]
            assert meta["type"] == "meta"
            assert "slo.breach" in meta["reason"]

    def test_workload_still_healthy_after_breach(self, outcome):
        assert outcome[1]["violations"] == []
