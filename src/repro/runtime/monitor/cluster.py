"""The cluster observability plane: one merged picture of a sharded run.

PR 6 split the ecosystem into OS-process shards and left every trace,
metric window and postmortem dump stopping at the process boundary. This
module is the layer that stitches them back together, Dapper-style,
using the two seams a shard already has — the broker forward path and
the control plane:

- **trace context on the wire** — a sampled message carries its trace in
  the data-plane payload; the origin shard keeps its half as a *partial*
  (``Tracer.record_partial``) and the receiving shard finishes the same
  trace_id, so ``trace_fetch`` can reassemble intercept→route→forward→
  dwell→apply spans from different processes into one tree. Control
  requests issued under an active trace carry a ``trace`` context, and
  the serving shard records a ``control.<op>`` span for them.
- **clock offsets** — spans are stamped with ``trace_now()``, a
  per-process monotonic clock; the plane estimates each peer's offset
  with ping-style ``clock_probe`` ops (offset = peer time minus the RTT
  midpoint, best of several probes) and normalizes remote spans onto the
  assembling shard's clock. Residual skew can still reorder spans, so
  assembly clamps them into pipeline-causal order (apply never renders
  before route) and flags what it moved.
- **federation ops** — every shard registers a pseudo-service
  ``_shard:<name>`` on the control plane answering ``clock_probe``,
  ``metrics_dump``, ``health_report``, ``trace_ids``, ``trace_fetch``
  and ``flight_dump``; any shard (or the parent CLI, via
  ``ShardRunner.cluster_request``) can pull the whole cluster's metrics,
  health and traces through one shard. Every per-shard Prometheus
  rendering carries a ``shard`` label.
- **correlated postmortems** — when a shard's FlightRecorder auto-dumps
  an anomaly, its ``incident_sink`` calls :meth:`ClusterPlane.
  broadcast_incident`: the shard dumps its rings into
  ``<incident_root>/<incident-id>/<shard>.jsonl`` and asks every peer
  (``flight_dump``) to dump its matching window into the same incident
  directory — a breach on the subscriber shard freezes the publisher
  shard's admission/coalesce/WAL evidence for the same messages.

A dead peer degrades, never hangs: federation calls have structured
timeouts, unreachable shards are reported as ``missing`` (the trace
renderer prints a ``missing-hop`` marker), and :func:`cluster_quiesce`
falls back to counter-stability when a peer link has died.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ControlPlaneError, TransportError, TransportTimeout
from repro.runtime.tracing import (
    PIPELINE_STAGES,
    STAGE_APPLY,
    STAGE_BATCH,
    STAGE_DEP_WAIT,
    STAGE_DWELL,
    STAGE_FORWARD,
    STAGE_INTERCEPT,
    STAGE_ROUTE,
    trace_now,
)
from repro.runtime.transport.handler import OpTable

#: Control-plane name of a shard's cluster pseudo-service. The prefix
#: cannot collide with real services (service names are identifiers).
SHARD_SERVICE_PREFIX = "_shard:"

#: Ping probes per peer when estimating clock offsets (best RTT wins).
CLOCK_PROBES = 3

#: Consecutive stable all-idle polls required before the mesh counts as
#: quiescent (one poll can race a forwarded payload still in a pipe).
QUIESCENT_POLLS = 2

#: The linear causal chain a cross-shard delivery walks, in order; the
#: assembled critical path picks the latest-finishing span of each.
CRITICAL_CHAIN = (
    STAGE_INTERCEPT,
    STAGE_ROUTE,
    STAGE_FORWARD,
    STAGE_DWELL,
    STAGE_DEP_WAIT,
    STAGE_APPLY,
    STAGE_BATCH,
)


def _health_switches(params: Dict[str, Any]) -> Dict[str, bool]:
    """The two switches of a ``health_report`` op, local or federated."""
    return {
        "drain": bool(params.get("drain", False)),
        "evaluate": bool(params.get("evaluate", True)),
    }


def shard_service(shard_name: str) -> str:
    """The control-plane address of ``shard_name``'s cluster handler."""
    return SHARD_SERVICE_PREFIX + shard_name


class ClusterPlane:
    """One shard's view of — and window into — the whole cluster.

    Created by the shard worker entry point (``eco.cluster``); also
    usable single-process with ``peers=()`` where every federation call
    degenerates to the loopback transport.
    """

    def __init__(
        self,
        ecosystem: Any,
        shard_name: str,
        peers: Tuple[str, ...] = (),
        links: Optional[Dict[str, Any]] = None,
        incident_root: Optional[str] = None,
        op_timeout: float = 5.0,
        span_capacity: int = 1024,
    ) -> None:
        self.ecosystem = ecosystem
        self.shard_name = shard_name
        self.peers = [p for p in peers if p != shard_name]
        #: peer shard -> PeerLink (the shard worker fills this in); used
        #: for the forwarded-payload counters in the idle state.
        self.links: Dict[str, Any] = links if links is not None else {}
        self.incident_root = incident_root
        self.op_timeout = op_timeout
        #: peer shard -> (peer trace clock - local trace clock).
        self._offsets: Dict[str, float] = {}
        #: trace_id -> spans recorded here for *remote* traces (control
        #: ops served on behalf of another shard's sampled message).
        self._remote_spans: Dict[str, List[Dict[str, Any]]] = {}
        self._remote_order: List[str] = []
        self._span_capacity = span_capacity
        self._lock = threading.Lock()
        self._incident_seq = 0
        self._broadcasting = threading.local()
        #: What this shard answers its peers and its own loopback:
        #: always local — federation is the asker's job.
        self._peer_ops = OpTable(f"shard {shard_name!r} cluster", {
            "ping": lambda p: {"shard": shard_name, "pong": True},
            # The peer's span clock, read as late as possible: the
            # requester brackets the call with its own clock and takes
            # the RTT midpoint.
            "clock_probe": lambda p: {"shard": shard_name, "now": trace_now()},
            "metrics_dump": lambda p: self.local_metrics(),
            "health_report": lambda p: self.local_health(**_health_switches(p)),
            "trace_ids": lambda p: self.local_trace_ids(),
            "trace_fetch": lambda p: self.local_trace_spans(p["uid"]),
            "flight_dump": lambda p: {
                "shard": shard_name,
                "path": self.dump_incident(
                    p["incident"], p.get("reason", "peer-incident")
                ),
            },
        })
        #: Federated ops by name, for parent-CLI commands relayed by the
        #: shard worker (``ShardRunner.cluster_request``).
        self._federated_ops = OpTable("cluster", {
            "metrics_dump": lambda p: self.metrics_dump(),
            "health_report": lambda p: self.health_report(**_health_switches(p)),
            "trace_ids": lambda p: self.trace_ids(),
            "trace_fetch": lambda p: self.fetch_trace(p["uid"]),
            "offsets": lambda p: {
                "shard": shard_name, "offsets": self.estimate_offsets(),
            },
        })

    # -- wiring --------------------------------------------------------------

    def install(self) -> "ClusterPlane":
        """Register this plane's pseudo-service on the local control
        plane and hand it to the ecosystem (peer routes are added by the
        shard worker alongside the per-service routes)."""
        self.ecosystem.control.register_handler(
            shard_service(self.shard_name), self._peer_ops
        )
        self.ecosystem.cluster = self
        self.ecosystem.recorder.incident_sink = self.broadcast_incident
        return self

    def known_shards(self) -> List[str]:
        return [self.shard_name] + sorted(self.peers)

    # -- local answers (served to peers and to our own loopback) -------------

    def local_metrics(self) -> Dict[str, Any]:
        from repro.runtime.monitor.export import to_prometheus

        return {
            "shard": self.shard_name,
            "metrics": self.ecosystem.metrics.snapshot(),
            "prometheus": to_prometheus(
                self.ecosystem.metrics, labels={"shard": self.shard_name}
            ),
        }

    def local_idle_state(self, drain: bool = False) -> Dict[str, int]:
        if drain:
            self.ecosystem.drain_all()
        cdc = getattr(self.ecosystem, "cdc", None)
        broker = self.ecosystem.broker
        backlog = sum(broker.backlog().values())
        in_flight = sum(broker.in_flight().values())
        outbox = cdc.backlog() if cdc is not None else 0
        return {
            "idle": int(backlog == 0 and in_flight == 0 and outbox == 0),
            "backlog": backlog,
            "in_flight": in_flight,
            "outbox": outbox,
            "sent": sum(link.data_sent for link in self.links.values()),
            "received": sum(link.data_received for link in self.links.values()),
        }

    def local_health(
        self, drain: bool = False, evaluate: bool = True
    ) -> Dict[str, Any]:
        """Idle/forward-counter state plus (optionally) the full SLO
        evaluation. Quiescence polling passes ``evaluate=False`` so it
        neither pays for queue scans nor emits breach transitions."""
        out: Dict[str, Any] = {"shard": self.shard_name}
        out.update(self.local_idle_state(drain=drain))
        if evaluate:
            out["health"] = self.ecosystem.monitor.health().to_dict()
        return out

    def local_trace_ids(self) -> Dict[str, Any]:
        tracer = self.ecosystem.tracer
        ids = {t.trace_id for t in tracer.finished()}
        ids.update(t.trace_id for t in tracer.partials())
        with self._lock:
            ids.update(self._remote_spans)
        return {"shard": self.shard_name, "ids": sorted(ids)}

    def local_trace_spans(self, uid: str) -> Dict[str, Any]:
        """Every span this shard holds for ``uid``: finished traces,
        origin-side partials, and control-op spans served for peers."""
        tracer = self.ecosystem.tracer
        spans: List[Dict[str, Any]] = []
        found = False
        for trace in tracer.finished() + tracer.partials():
            if trace.trace_id != uid:
                continue
            found = True
            for span in trace.spans:
                entry = span.to_dict()
                entry.setdefault("shard", self.shard_name)
                spans.append(entry)
        with self._lock:
            extra = list(self._remote_spans.get(uid, ()))
        if extra:
            found = True
            spans.extend(extra)
        return {"shard": self.shard_name, "found": found, "spans": spans}

    def record_remote_span(
        self, trace_ctx: Dict[str, Any], stage: str,
        start: float, duration: float,
    ) -> None:
        """Record serving a control op under someone else's trace (called
        by the pipe dispatcher when a request carries trace context)."""
        trace_id = trace_ctx.get("trace_id")
        if not trace_id:
            return
        entry = {
            "stage": stage,
            "start": start,
            "duration": duration,
            "shard": self.shard_name,
        }
        with self._lock:
            if trace_id not in self._remote_spans:
                self._remote_order.append(trace_id)
                while len(self._remote_order) > self._span_capacity:
                    self._remote_spans.pop(self._remote_order.pop(0), None)
            self._remote_spans.setdefault(trace_id, []).append(entry)

    # -- clock offsets -------------------------------------------------------

    def estimate_offsets(self, probes: int = CLOCK_PROBES) -> Dict[str, float]:
        """Probe every peer not yet estimated; unreachable peers are
        skipped (their spans render unnormalized, with a note)."""
        for peer in self.peers:
            if peer in self._offsets:
                continue
            try:
                self.probe_offset(peer, probes=probes)
            except (ControlPlaneError, TransportError):
                pass
        return dict(self._offsets)

    def probe_offset(self, peer: str, probes: int = CLOCK_PROBES) -> float:
        """NTP-style offset estimate: the peer's clock read is assumed to
        happen at the RTT midpoint; the probe with the smallest RTT bounds
        the error tightest, so its estimate wins."""
        best: Optional[Tuple[float, float]] = None
        for _ in range(max(1, probes)):
            t0 = trace_now()
            result = self.ecosystem.control.request(
                shard_service(peer), "clock_probe", timeout=self.op_timeout
            )
            t1 = trace_now()
            offset = float(result["now"]) - (t0 + t1) / 2.0
            if best is None or (t1 - t0) < best[0]:
                best = (t1 - t0, offset)
        self._offsets[peer] = best[1]
        return best[1]

    def offset_of(self, shard: str) -> Optional[float]:
        """Seconds to subtract from ``shard``'s span timestamps to land
        on this shard's clock; None when never estimated."""
        if shard in ("", self.shard_name):
            return 0.0
        return self._offsets.get(shard)

    # -- federation ----------------------------------------------------------

    def _federate(
        self, op: str, **params: Any
    ) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
        """Ask every shard (self included, via loopback) one op; shards
        that fail or time out land in the ``missing`` list instead of
        failing the whole federation."""
        results: Dict[str, Dict[str, Any]] = {}
        missing: List[str] = []
        for shard in self.known_shards():
            try:
                results[shard] = self.ecosystem.control.request(
                    shard_service(shard), op,
                    timeout=self.op_timeout, **params,
                )
            except (ControlPlaneError, TransportError):
                missing.append(shard)
        return results, missing

    def metrics_dump(self) -> Dict[str, Any]:
        results, missing = self._federate("metrics_dump")
        return {"shards": results, "missing": missing}

    def health_report(
        self, drain: bool = False, evaluate: bool = True
    ) -> Dict[str, Any]:
        results, missing = self._federate(
            "health_report", drain=drain, evaluate=evaluate
        )
        return {"shards": results, "missing": missing}

    def trace_ids(self) -> Dict[str, Any]:
        results, missing = self._federate("trace_ids")
        return {"shards": results, "missing": missing}

    def fetch_trace(self, uid: str) -> Dict[str, Any]:
        """Pull every shard's spans for ``uid`` and assemble one tree
        with normalized timestamps, per-hop latency and a critical path."""
        self.estimate_offsets()
        results, missing = self._federate("trace_fetch", uid=uid)
        return assemble_trace(
            uid, list(results.values()), missing, self.offset_of,
            self.shard_name,
        )

    def serve(self, op: str, params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One federated op by name (``ShardRunner.cluster_request``)."""
        return self._federated_ops.call(op, params or {})

    # -- correlated postmortems ----------------------------------------------

    def broadcast_incident(self, reason: str) -> Optional[str]:
        """One shard's anomaly dump becomes everyone's: mint an incident
        id, dump the local rings into the incident directory, and ask
        every peer to dump its matching window there too. Re-entrant
        calls (a dead-peer anomaly raised *while* broadcasting) are
        dropped instead of recursing."""
        if self.incident_root is None:
            return None
        if getattr(self._broadcasting, "active", False):
            return None
        self._broadcasting.active = True
        try:
            with self._lock:
                self._incident_seq += 1
                seq = self._incident_seq
            safe_reason = "".join(
                ch if ch.isalnum() or ch in "-_." else "_" for ch in reason
            )
            incident_id = f"incident-{self.shard_name}-{seq:03d}-{safe_reason}"
            self.dump_incident(incident_id, reason)
            for peer in self.peers:
                try:
                    self.ecosystem.control.request(
                        shard_service(peer), "flight_dump",
                        timeout=self.op_timeout,
                        incident=incident_id, reason=reason,
                    )
                except (ControlPlaneError, TransportError):
                    pass  # a dead peer cannot contribute its window
            return incident_id
        finally:
            self._broadcasting.active = False

    def dump_incident(self, incident_id: str, reason: str) -> str:
        """Dump the local rings into the shared incident directory."""
        if self.incident_root is None:
            raise ControlPlaneError(
                f"shard {self.shard_name!r} has no incident_root configured",
                error_type="NoIncidentRoot", op="flight_dump",
            )
        safe_id = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in incident_id
        )
        path = os.path.join(
            self.incident_root, safe_id, f"{self.shard_name}.jsonl"
        )
        return self.ecosystem.recorder.dump_to(path, reason=reason)


# -- trace assembly ---------------------------------------------------------


def assemble_trace(
    uid: str,
    shard_results: List[Dict[str, Any]],
    missing: List[str],
    offset_of: Callable[[str], Optional[float]],
    local_shard: str,
) -> Dict[str, Any]:
    """Merge per-shard span sets into one normalized, causally-ordered
    tree (a plain JSON-ish dict: it crosses the command pipe to the CLI).

    Steps: dedup (origin partials and finished traces overlap on the
    publisher-side spans), normalize each span's start onto the
    assembling shard's clock via ``offset_of``, sort by pipeline stage
    rank, then clamp starts to be non-decreasing along the rank order —
    offset estimates carry RTT/2-scale error, and a causally-impossible
    rendering (apply before route) is worse than a slightly-shifted one.
    Clamped spans are flagged ``adjusted``.
    """
    order = {stage: i for i, stage in enumerate(PIPELINE_STAGES)}
    control_rank = len(PIPELINE_STAGES)
    seen = set()
    spans: List[Dict[str, Any]] = []
    for result in shard_results:
        for entry in result.get("spans", ()):
            shard = entry.get("shard") or result.get("shard") or local_shard
            key = (
                shard, entry["stage"],
                round(float(entry["start"]), 9),
                round(float(entry["duration"]), 9),
            )
            if key in seen:
                continue
            seen.add(key)
            spans.append({
                "stage": entry["stage"],
                "shard": shard,
                "start": float(entry["start"]),
                "duration": float(entry["duration"]),
            })
    unnormalized = set()
    for span in spans:
        offset = offset_of(span["shard"])
        if offset is None:
            unnormalized.add(span["shard"])
        else:
            span["start"] -= offset
    spans.sort(key=lambda s: (order.get(s["stage"], control_rank), s["start"]))
    frontier: Optional[float] = None
    for span in spans:
        if span["stage"] not in order:
            continue  # control.* spans are annotations, not pipeline stages
        if frontier is not None and span["start"] < frontier:
            span["start"] = frontier
            span["adjusted"] = True
        frontier = span["start"] if frontier is None \
            else max(frontier, span["start"])
    # Per-hop transit: the gap between consecutive spans of the timeline
    # whenever the shard changes hands.
    timeline = sorted(
        (s for s in spans if s["stage"] in order), key=lambda s: s["start"]
    )
    hops = []
    for prev, nxt in zip(timeline, timeline[1:]):
        if prev["shard"] != nxt["shard"]:
            hops.append({
                "from": prev["shard"],
                "to": nxt["shard"],
                "transit": max(
                    0.0, nxt["start"] - (prev["start"] + prev["duration"])
                ),
            })
    critical = []
    for stage in CRITICAL_CHAIN:
        candidates = [s for s in spans if s["stage"] == stage]
        if candidates:
            critical.append(
                max(candidates, key=lambda s: s["start"] + s["duration"])
            )
    end_to_end = 0.0
    if critical:
        end_to_end = (
            max(s["start"] + s["duration"] for s in critical)
            - min(s["start"] for s in critical)
        )
    return {
        "uid": uid,
        "assembled_by": local_shard,
        "found": any(r.get("found") for r in shard_results),
        "spans": spans,
        "shards": sorted({s["shard"] for s in spans}),
        "missing": sorted(missing),
        "unnormalized": sorted(unnormalized),
        "hops": hops,
        "critical_path": [
            {"stage": s["stage"], "shard": s["shard"],
             "duration": s["duration"]}
            for s in critical
        ],
        "end_to_end": end_to_end,
    }


def format_assembled_trace(assembled: Dict[str, Any]) -> List[str]:
    """Render one assembled cross-shard trace for the CLI."""
    shards = ", ".join(assembled["shards"]) or "none"
    lines = [f"assembled trace {assembled['uid']} (shards: {shards}):"]
    if not assembled["found"]:
        lines.append("  no shard holds spans for this uid")
    base = min((s["start"] for s in assembled["spans"]), default=0.0)
    for span in assembled["spans"]:
        flag = "  ~clamped" if span.get("adjusted") else ""
        lines.append(
            f"  [{span['shard']}] {span['stage']:<24} "
            f"+{(span['start'] - base) * 1000:9.3f} ms  "
            f"{span['duration'] * 1000:9.3f} ms{flag}"
        )
    for hop in assembled["hops"]:
        lines.append(
            f"  hop {hop['from']} -> {hop['to']}: "
            f"transit {hop['transit'] * 1000:.3f} ms"
        )
    if assembled["critical_path"]:
        chain = " -> ".join(
            f"{entry['stage'].split('.')[-1]}({entry['shard']})"
            for entry in assembled["critical_path"]
        )
        lines.append(
            f"  critical path: {chain} = {assembled['end_to_end'] * 1000:.3f} ms"
        )
    for shard in assembled["missing"]:
        lines.append(f"  missing-hop: {shard} (unreachable during trace_fetch)")
    for shard in assembled["unnormalized"]:
        lines.append(
            f"  note: no clock offset for {shard}; its spans are on its "
            "own clock"
        )
    return lines


# -- cluster quiescence ------------------------------------------------------


def cluster_quiesce(
    ecosystem: Any, timeout: float = 30.0, poll_interval: float = 0.02
) -> int:
    """Drain the whole mesh from inside one shard: poll every shard's
    ``health_report`` (with ``drain=True``, so each shard drains its own
    queues as part of answering) until all reachable shards are idle and
    the forwarded-payload counters balance, stable across
    :data:`QUIESCENT_POLLS` consecutive polls.

    When a peer is unreachable (a crash-recovery phase kills shards on
    purpose), sent==received can never balance — the dead shard's
    counters are gone — so the criterion degrades to the *live* shards
    being idle with stable counters. Returns the number of polls; raises
    :class:`TransportTimeout` if the deadline passes first.
    """
    cluster: Optional[ClusterPlane] = getattr(ecosystem, "cluster", None)
    solo = ClusterPlane(ecosystem, "solo") if cluster is None else None
    deadline = time.monotonic() + timeout
    stable = 0
    last: Optional[Tuple] = None
    polls = 0
    while time.monotonic() < deadline:
        polls += 1
        states: List[Dict[str, Any]] = []
        dead: List[str] = []
        if cluster is None:
            # Single-process: the plane with no peers, asked directly.
            states = [solo.local_idle_state(drain=True)]
        else:
            report = cluster.health_report(drain=True, evaluate=False)
            dead = list(report["missing"])
            states = list(report["shards"].values())
        if states and all(state["idle"] for state in states):
            sent = sum(state["sent"] for state in states)
            received = sum(state["received"] for state in states)
            settled = (sent == received) if not dead else True
            if settled:
                key = (sent, received, tuple(sorted(dead)))
                stable = stable + 1 if last == key else 1
                last = key
                if stable >= QUIESCENT_POLLS:
                    return polls
            else:
                stable, last = 0, None
        else:
            stable, last = 0, None
        time.sleep(poll_interval)
    raise TransportTimeout(
        f"cluster did not quiesce within {timeout:.0f}s"
    )
