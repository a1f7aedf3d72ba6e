"""The cluster observability plane, single-process.

Everything here runs in one interpreter: federation ops go through the
loopback transport (same JSON round trip as a pipe), peers that do not
exist exercise the missing-shard degradation, and trace assembly is fed
synthetic span sets so the clock-normalization and causal-clamp edge
cases are deterministic.
"""

from __future__ import annotations

import pytest

from repro.errors import ControlPlaneError
from repro.runtime import tracing
from repro.runtime.monitor.cluster import (
    ClusterPlane,
    assemble_trace,
    format_assembled_trace,
    shard_service,
)
from repro.runtime.monitor.export import parse_prometheus
from repro.runtime.monitor.watch import render_prometheus
from repro.runtime.tracing import (
    STAGE_APPLY,
    STAGE_DWELL,
    STAGE_FORWARD,
    STAGE_INTERCEPT,
    STAGE_ROUTE,
    trace_now,
)


def _build_pair_ecosystem():
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike
    from repro.orm import Field, Model

    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"], name="Doc")
    class Doc(Model):
        name = Field(str)

    sub = eco.service("sub", database=MongoLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="Doc")
    class SubDoc(Model):
        name = Field(str)

    return eco, pub, sub, Doc


class TestLoopbackFederation:
    """peers=(): every federation op degenerates to the local shard,
    still crossing the JSON envelope layer."""

    @pytest.fixture()
    def eco(self):
        eco, pub, sub, Doc = _build_pair_ecosystem()
        eco.enable_tracing(sample_rate=1.0)
        ClusterPlane(eco, "solo").install()
        with pub.controller():
            for i in range(4):
                Doc.create(name=f"doc-{i}")
        sub.subscriber.drain()
        return eco

    def test_install_wires_ecosystem_and_incident_sink(self, eco):
        assert eco.cluster is not None
        assert eco.cluster.shard_name == "solo"
        assert eco.recorder.incident_sink == eco.cluster.broadcast_incident
        assert eco.control.known(shard_service("solo"))

    def test_metrics_dump_carries_shard_label(self, eco):
        dump = eco.cluster.snapshot()
        assert dump["missing"] == []
        entry = dump["shards"]["solo"]
        assert entry["metrics"]["broker.routed"] == 4
        text = render_prometheus(dump)
        parsed = parse_prometheus(text)
        assert parsed['repro_broker_routed{shard="solo"}'] == 4
        # Every non-comment sample line carries the shard label.
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert 'shard="solo"' in line, line

    def test_health_report_federates_and_reports_idle(self, eco):
        report = eco.cluster.snapshot(drain=True)
        assert report["missing"] == []
        state = report["shards"]["solo"]
        assert state["idle"] == 1
        assert state["health"]["links"], "SLO evaluation missing"

    def test_health_report_evaluate_false_skips_slo_scan(self, eco):
        report = eco.cluster.snapshot(drain=True, evaluate=False)
        assert "health" not in report["shards"]["solo"]

    def test_trace_ids_and_fetch_round_trip(self, eco):
        ids = eco.cluster.trace_ids()["shards"]["solo"]["ids"]
        assert ids, "sampled traces should have been recorded"
        assembled = eco.cluster.fetch_trace(ids[0])
        assert assembled["found"]
        assert assembled["shards"] == ["solo"]
        stages = [span["stage"] for span in assembled["spans"]]
        assert STAGE_INTERCEPT in stages and STAGE_APPLY in stages

    def test_serve_rejects_unknown_op(self, eco):
        with pytest.raises(ControlPlaneError, match="unknown cluster op"):
            eco.cluster.serve("flush_everything")

    def test_cluster_handler_answers_clock_probe(self, eco):
        before = trace_now()
        result = eco.control.request(shard_service("solo"), "clock_probe")
        assert result["shard"] == "solo"
        assert before <= float(result["now"]) <= trace_now()


class TestMissingShards:
    """A dead/unknown peer degrades to a ``missing`` entry — no hang,
    no exception out of the federation."""

    @pytest.fixture()
    def eco(self):
        eco, pub, sub, Doc = _build_pair_ecosystem()
        eco.enable_tracing(sample_rate=1.0)
        # "ghost" has no route and no handler: every request to it fails
        # fast with UnknownService — the same structured degradation a
        # TransportError from a dead pipe produces.
        ClusterPlane(eco, "solo", peers=("ghost",)).install()
        with pub.controller():
            Doc.create(name="doc")
        sub.subscriber.drain()
        return eco

    def test_dead_origin_shard_yields_partial_trace_with_marker(self, eco):
        ids = eco.cluster.trace_ids()
        assert ids["missing"] == ["ghost"]
        uid = ids["shards"]["solo"]["ids"][0]
        assembled = eco.cluster.fetch_trace(uid)
        assert assembled["found"], "live shard's spans must still assemble"
        assert assembled["missing"] == ["ghost"]
        rendered = "\n".join(format_assembled_trace(assembled))
        assert "missing-hop: ghost" in rendered

    def test_health_report_lists_dead_peer_as_missing(self, eco):
        report = eco.cluster.snapshot()
        assert report["missing"] == ["ghost"]
        assert "solo" in report["shards"]

    def test_offset_estimation_skips_unreachable_peer(self, eco):
        offsets = eco.cluster.estimate_offsets()
        assert "ghost" not in offsets
        assert eco.cluster.offset_of("ghost") is None


class TestClockOffsets:
    def test_probe_offset_uses_rtt_midpoint(self):
        eco, pub, sub, Doc = _build_pair_ecosystem()
        cluster = ClusterPlane(eco, "here", peers=("there",)).install()

        skew = 2.5

        class FakePeerHandler:
            def handle(self, request):
                from repro.runtime.transport.envelopes import ControlResponse

                return ControlResponse.success(
                    request, {"shard": "there", "now": trace_now() + skew}
                )

        eco.control.register_handler(shard_service("there"), FakePeerHandler())
        offset = cluster.probe_offset("there")
        # Loopback RTT is microseconds: the midpoint estimate must land
        # within a loose tolerance of the injected skew.
        assert abs(offset - skew) < 0.05
        assert abs(cluster.offset_of("there") - skew) < 0.05
        assert cluster.offset_of("here") == 0.0
        assert cluster.offset_of("") == 0.0


class TestTraceAssembly:
    """Synthetic span sets: normalization, causal clamp, dedup, hops."""

    @staticmethod
    def _shard_result(shard, spans):
        return {
            "shard": shard,
            "found": bool(spans),
            "spans": [
                {"stage": stage, "start": start, "duration": duration,
                 "shard": shard}
                for stage, start, duration in spans
            ],
        }

    def test_offset_normalization_maps_remote_spans_onto_local_clock(self):
        # shard1's clock runs 100s ahead; its spans must land *after*
        # shard0's route on the normalized timeline, in true order.
        results = [
            self._shard_result("shard0", [
                (STAGE_INTERCEPT, 10.000, 0.001),
                (STAGE_ROUTE, 10.002, 0.001),
                (STAGE_FORWARD, 10.004, 0.001),
            ]),
            self._shard_result("shard1", [
                (STAGE_DWELL, 110.010, 0.004),
                (STAGE_APPLY, 110.015, 0.002),
            ]),
        ]
        offsets = {"shard0": 0.0, "shard1": 100.0}
        assembled = assemble_trace(
            "m:1", results, [], offsets.get, "shard0"
        )
        by_stage = {s["stage"]: s for s in assembled["spans"]}
        assert by_stage[STAGE_DWELL]["start"] == pytest.approx(10.010)
        assert by_stage[STAGE_APPLY]["start"] == pytest.approx(10.015)
        assert not any(s.get("adjusted") for s in assembled["spans"])
        assert assembled["unnormalized"] == []
        # One hop, shard0 -> shard1, with the real transit gap.
        assert [(h["from"], h["to"]) for h in assembled["hops"]] == [
            ("shard0", "shard1")
        ]
        assert assembled["end_to_end"] == pytest.approx(10.017 - 10.000)

    def test_causal_clamp_keeps_apply_after_route(self):
        # A *wrong* offset estimate normalizes the subscriber's spans to
        # before the publisher even routed. The clamp must restore
        # pipeline-causal order (apply never renders before route) and
        # flag what it moved.
        results = [
            self._shard_result("shard0", [
                (STAGE_INTERCEPT, 10.000, 0.001),
                (STAGE_ROUTE, 10.002, 0.001),
            ]),
            self._shard_result("shard1", [
                (STAGE_DWELL, 9.000, 0.001),
                (STAGE_APPLY, 9.002, 0.001),
            ]),
        ]
        assembled = assemble_trace(
            "m:2", results, [], {"shard0": 0.0, "shard1": 0.0}.get, "shard0"
        )
        by_stage = {s["stage"]: s for s in assembled["spans"]}
        assert by_stage[STAGE_DWELL]["start"] >= by_stage[STAGE_ROUTE]["start"]
        assert by_stage[STAGE_APPLY]["start"] >= by_stage[STAGE_ROUTE]["start"]
        assert by_stage[STAGE_DWELL].get("adjusted") is True
        rendered = "\n".join(format_assembled_trace(assembled))
        assert "~clamped" in rendered

    def test_unknown_offset_renders_note_instead_of_guessing(self):
        results = [
            self._shard_result("shard0", [(STAGE_ROUTE, 1.0, 0.001)]),
            self._shard_result("shard9", [(STAGE_APPLY, 55.0, 0.001)]),
        ]
        assembled = assemble_trace(
            "m:3", results, [], {"shard0": 0.0}.get, "shard0"
        )
        assert assembled["unnormalized"] == ["shard9"]
        rendered = "\n".join(format_assembled_trace(assembled))
        assert "no clock offset for shard9" in rendered

    def test_duplicate_spans_from_partial_and_finished_dedup(self):
        # The origin's partial trace and the finished trace that crossed
        # the wire overlap on the publisher-side spans: one copy remains.
        span = (STAGE_INTERCEPT, 5.0, 0.002)
        results = [
            self._shard_result("shard0", [span]),
            self._shard_result("shard1", [span[:3]]),
        ]
        # Same (stage, start, duration) but stamped shard0 on both sides.
        results[1]["spans"][0]["shard"] = "shard0"
        assembled = assemble_trace(
            "m:4", results, [], lambda s: 0.0, "shard0"
        )
        assert len(assembled["spans"]) == 1

    def test_critical_path_prefers_latest_finishing_span_per_stage(self):
        # Fan-out: a local apply and a (slower) remote apply. The
        # critical path must follow the remote one.
        results = [
            self._shard_result("shard0", [
                (STAGE_INTERCEPT, 1.000, 0.001),
                (STAGE_ROUTE, 1.002, 0.001),
                (STAGE_APPLY, 1.010, 0.001),
            ]),
            self._shard_result("shard1", [
                (STAGE_APPLY, 1.050, 0.002),
            ]),
        ]
        assembled = assemble_trace(
            "m:5", results, [], lambda s: 0.0, "shard0"
        )
        apply_entry = [
            e for e in assembled["critical_path"] if e["stage"] == STAGE_APPLY
        ]
        assert apply_entry == [
            {"stage": STAGE_APPLY, "shard": "shard1", "duration": 0.002}
        ]


class TestUnsampledMessagesStayAllocationFree:
    def test_unsampled_cross_shard_message_materializes_no_spans(
        self, monkeypatch
    ):
        # Two in-process ecosystems wired through the broker seam: the
        # origin forwards wire payloads into the receiver's broker, the
        # way two shard processes would.
        origin, origin_pub, _, OriginDoc = _build_pair_ecosystem()
        receiver, _, receiver_sub, _ = _build_pair_ecosystem()
        origin.owned_services = {"pub"}
        receiver.owned_services = {"sub"}
        origin.broker.attach(placement=(
            lambda sub: sub != "sub",
            lambda sub, payload: receiver.broker.deliver_remote(sub, payload),
        ))
        # Tracing ON but nothing wins the draw: rate 0 makes every
        # message unsampled while keeping the tracer (and its SpanLog
        # path) fully enabled.
        origin.enable_tracing(sample_rate=0.0)
        receiver.enable_tracing(sample_rate=0.0)

        materialized = []
        original_init = tracing.Span.__init__

        def counting_init(span_self, *args, **kwargs):
            materialized.append(args[0] if args else kwargs.get("stage"))
            original_init(span_self, *args, **kwargs)

        monkeypatch.setattr(tracing.Span, "__init__", counting_init)
        with origin_pub.controller():
            for i in range(5):
                OriginDoc.create(name=f"doc-{i}")
        receiver_sub.subscriber.drain()

        assert materialized == [], (
            "unsampled messages must never materialize Span objects "
            f"(got {materialized})"
        )
        assert receiver.local_service("sub").registry["Doc"].count() == 5
        assert origin.tracer.partials() == []
        assert origin.tracer.finished() == []
        assert receiver.tracer.finished() == []

    def test_sampled_cross_shard_message_does_materialize(self):
        origin, origin_pub, _, OriginDoc = _build_pair_ecosystem()
        receiver, _, receiver_sub, _ = _build_pair_ecosystem()
        origin.owned_services = {"pub"}
        receiver.owned_services = {"sub"}
        origin.broker.attach(placement=(
            lambda sub: sub != "sub",
            lambda sub, payload: receiver.broker.deliver_remote(sub, payload),
        ))
        origin.enable_tracing(sample_rate=1.0)
        receiver.enable_tracing(sample_rate=1.0)
        with origin_pub.controller():
            OriginDoc.create(name="doc")
        receiver_sub.subscriber.drain()

        partials = origin.tracer.partials()
        assert len(partials) == 1
        assert STAGE_FORWARD in [s.stage for s in partials[0].spans]
        finished = receiver.tracer.finished()
        assert len(finished) == 1
        assert finished[0].trace_id == partials[0].trace_id
        stages = [s.stage for s in finished[0].spans]
        assert STAGE_ROUTE in stages and STAGE_APPLY in stages


class TestIncidentBroadcast:
    def test_broadcast_writes_local_dump_and_returns_incident_id(
        self, tmp_path
    ):
        eco, pub, sub, Doc = _build_pair_ecosystem()
        cluster = ClusterPlane(
            eco, "solo", incident_root=str(tmp_path / "incidents")
        ).install()
        incident = cluster.broadcast_incident("slo.breach")
        assert incident is not None and "slo.breach" in incident
        dump = tmp_path / "incidents" / incident / "solo.jsonl"
        assert dump.exists()
        from repro.runtime.monitor import load_dump

        records = load_dump(str(dump))
        assert records[0]["type"] == "meta"
        assert records[0]["reason"] == "slo.breach"

    def test_no_incident_root_means_no_broadcast(self):
        eco, *_ = _build_pair_ecosystem()
        cluster = ClusterPlane(eco, "solo").install()
        assert cluster.broadcast_incident("slo.breach") is None
        with pytest.raises(ControlPlaneError, match="incident_root"):
            cluster.dump_incident("incident-x", "slo.breach")

    def test_anomaly_triggers_broadcast_through_recorder_sink(
        self, tmp_path
    ):
        eco, *_ = _build_pair_ecosystem()
        ClusterPlane(
            eco, "solo", incident_root=str(tmp_path / "incidents")
        ).install()
        eco.recorder.anomaly("slo.breach", publisher="pub", subscriber="sub")
        incidents = list((tmp_path / "incidents").iterdir())
        assert len(incidents) == 1
        assert (incidents[0] / "solo.jsonl").exists()
