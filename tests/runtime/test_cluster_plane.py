"""The cluster observability plane, single-process.

Everything here runs in one interpreter: federation ops go through the
loopback transport (same JSON round trip as a pipe), peers that do not
exist exercise the missing-shard degradation, and trace assembly is fed
synthetic span sets so ordering, hop pairing and the critical path are
deterministic.
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
    STAGE_COLLECT,
    STAGE_DEP_WAIT,
    STAGE_DWELL,
    STAGE_ENGINE_WRITE,
    STAGE_FORWARD,
    STAGE_INTERCEPT,
    STAGE_REGISTER,
    STAGE_ROUTE,
)


def _build_pair_ecosystem():
    from repro.apps import build_replicated_pair
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike

    eco = Ecosystem()
    eco.service("sub", database=MongoLike("sub-db"))
    return build_replicated_pair(eco)


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


class TestTraceAssembly:
    """Synthetic span sets: recorded order, dedup, hops, critical path."""

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

    def test_shared_clock_spans_keep_recorded_starts(self):
        # Both shards stamp spans from the host's one monotonic clock:
        # shard1's spans land after shard0's forward as recorded.
        results = [
            self._shard_result("shard0", [
                (STAGE_INTERCEPT, 10.000, 0.001),
                (STAGE_ROUTE, 10.002, 0.001),
                (STAGE_FORWARD, 10.004, 0.001),
            ]),
            self._shard_result("shard1", [
                (STAGE_ROUTE, 10.007, 0.002),
                (STAGE_DWELL, 10.010, 0.004),
                (STAGE_APPLY, 10.015, 0.002),
            ]),
        ]
        assembled = assemble_trace("m:1", results, [], "shard0")
        assert [(s["shard"], s["stage"], s["start"])
                for s in assembled["spans"]] == [
            ("shard0", STAGE_INTERCEPT, 10.000),
            ("shard0", STAGE_ROUTE, 10.002),
            ("shard0", STAGE_FORWARD, 10.004),
            ("shard1", STAGE_ROUTE, 10.007),
            ("shard1", STAGE_DWELL, 10.010),
            ("shard1", STAGE_APPLY, 10.015),
        ]
        # One hop, shard0 -> shard1, with the real transit gap.
        assert [(h["from"], h["to"]) for h in assembled["hops"]] == [
            ("shard0", "shard1")
        ]
        assert assembled["hops"][0]["transit"] == pytest.approx(0.002)
        assert assembled["end_to_end"] == pytest.approx(10.017 - 10.000)

    def test_fan_out_trace_renders_in_recorded_order(self):
        # The shape of a real 2-shard demo trace: one local delivery on
        # the origin and one forwarded to shard1. The engine write runs
        # before the version register and the forward before shard1's
        # route; shard1's finished trace repeats the publisher spans it
        # received on the wire.
        publisher = [
            (STAGE_INTERCEPT, 10.000000, 0.000201),
            (STAGE_COLLECT, 10.000002, 0.000007),
            (STAGE_ENGINE_WRITE, 10.000020, 0.000042),
            (STAGE_REGISTER, 10.000089, 0.000053),
        ]
        shard0 = publisher + [
            (STAGE_ROUTE, 10.000356, 0.000043),
            (STAGE_DWELL, 10.000393, 0.007394),
            (STAGE_FORWARD, 10.000566, 0.000048),
            (STAGE_DEP_WAIT, 10.007911, 0.000040),
            (STAGE_APPLY, 10.007974, 0.000105),
        ]
        shard1 = [
            (STAGE_ROUTE, 10.001755, 0.000120),
            (STAGE_DWELL, 10.001869, 0.015559),
            (STAGE_DEP_WAIT, 10.017569, 0.000022),
            (STAGE_APPLY, 10.017606, 0.000084),
        ]
        received = self._shard_result("shard1", shard1)
        received["spans"] += self._shard_result("shard0", publisher)["spans"]
        assembled = assemble_trace(
            "m:6", [self._shard_result("shard0", shard0), received], [],
            "shard0",
        )
        recorded = {
            ("shard0", stage): start for stage, start, _ in shard0
        }
        recorded.update(
            {("shard1", stage): start for stage, start, _ in shard1}
        )
        spans = assembled["spans"]
        assert len(spans) == len(recorded)
        assert {(s["shard"], s["stage"]): s["start"] for s in spans} \
            == recorded
        starts = [s["start"] for s in spans]
        assert starts == sorted(starts)

        forward_end = 10.000566 + 0.000048
        assert len(assembled["hops"]) == 1
        hop = assembled["hops"][0]
        assert (hop["from"], hop["to"]) == ("shard0", "shard1")
        assert hop["transit"] == pytest.approx(10.001755 - forward_end)

        assert [(e["stage"], e["shard"]) for e in assembled["critical_path"]] \
            == [
                (STAGE_INTERCEPT, "shard0"),
                (STAGE_FORWARD, "shard0"),
                (STAGE_ROUTE, "shard1"),
                (STAGE_DWELL, "shard1"),
                (STAGE_DEP_WAIT, "shard1"),
                (STAGE_APPLY, "shard1"),
            ]
        assert assembled["end_to_end"] == pytest.approx(10.017690 - 10.0)

        rendered = format_assembled_trace(assembled)
        forward_line = next(
            i for i, line in enumerate(rendered) if STAGE_FORWARD in line
        )
        remote_route_line = next(
            i for i, line in enumerate(rendered)
            if "[shard1]" in line and STAGE_ROUTE in line
        )
        assert forward_line < remote_route_line
        assert [line for line in rendered if "hop " in line] == [
            "  hop shard0 -> shard1: transit 1.141 ms"
        ]
        assert rendered[-1].startswith(
            "  critical path: intercept(shard0) -> forward(shard0) -> "
            "route(shard1) -> dwell(shard1) -> dep_wait(shard1) -> "
            "apply(shard1)"
        )

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
        assembled = assemble_trace("m:4", results, [], "shard0")
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
        assembled = assemble_trace("m:5", results, [], "shard0")
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
