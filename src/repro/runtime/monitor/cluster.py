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
- **one clock** — spans are stamped with ``trace_now()``, the host's
  monotonic clock, and every shard is a process on the same host, so
  assembly places each span at its recorded start: no offset is
  estimated and no span is moved.
- **federation ops** — every shard registers a pseudo-service
  ``_shard:<name>`` on the control plane answering ``snapshot``,
  ``trace_ids``, ``trace_fetch`` and ``flight_dump``; any
  shard (or the parent CLI, via ``ShardRunner.cluster_request``) can
  pull the whole cluster's snapshots and traces through one shard.
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
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ControlPlaneError, TransportError, TransportTimeout
from repro.runtime.tracing import (
    STAGE_APPLY,
    STAGE_DEP_WAIT,
    STAGE_DWELL,
    STAGE_FORWARD,
    STAGE_INTERCEPT,
    STAGE_ROUTE,
)
from repro.runtime.transport.handler import OpTable

#: Control-plane name of a shard's cluster pseudo-service. The prefix
#: cannot collide with real services (service names are identifiers).
SHARD_SERVICE_PREFIX = "_shard:"

#: Consecutive stable all-idle polls required before the mesh counts as
#: quiescent (one poll can race a forwarded payload still in a pipe).
QUIESCENT_POLLS = 2

#: The stages a cross-shard delivery walks; the assembled critical path
#: picks the latest-finishing span of each and lists them by start.
CRITICAL_CHAIN = (
    STAGE_INTERCEPT,
    STAGE_FORWARD,
    STAGE_ROUTE,
    STAGE_DWELL,
    STAGE_DEP_WAIT,
    STAGE_APPLY,
)


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
            "snapshot": lambda p: self.local_snapshot(**p),
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
            "snapshot": lambda p: self.snapshot(**p),
            "trace_ids": lambda p: self.trace_ids(),
            "trace_fetch": lambda p: self.fetch_trace(p["uid"]),
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

    def local_snapshot(
        self, drain: bool = False, evaluate: bool = True
    ) -> Dict[str, Any]:
        """This shard's observability snapshot — the one shape every view
        prints: ``shard``; the idle/forward state (``idle``, ``backlog``,
        ``in_flight``, ``outbox``, ``sent``, ``received``); ``metrics``
        (the registry snapshot) and ``exemplars``; ``recorder`` (flight
        recorder ring counts); and, when ``evaluate``, ``health`` (the SLO
        evaluation). Quiescence polling passes ``evaluate=False`` so it
        neither pays for queue scans nor emits breach transitions."""
        eco = self.ecosystem
        if drain:
            eco.drain_all()
        backlog = sum(eco.broker.backlog().values())
        in_flight = sum(eco.broker.in_flight().values())
        outbox = eco.cdc.backlog()
        out: Dict[str, Any] = {
            "shard": self.shard_name,
            "idle": int(backlog == 0 and in_flight == 0 and outbox == 0),
            "backlog": backlog,
            "in_flight": in_flight,
            "outbox": outbox,
            "sent": sum(link.data_sent for link in self.links.values()),
            "received": sum(link.data_received for link in self.links.values()),
            "metrics": eco.metrics.snapshot(),
            "exemplars": eco.metrics.exemplars(),
            "recorder": {
                "traces": len(eco.recorder.traces()),
                "events": len(eco.recorder.events()),
                "anomalies": len(eco.recorder.anomalies()),
            },
        }
        if evaluate:
            out["health"] = eco.monitor.health().to_dict()
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

    def snapshot(
        self, drain: bool = False, evaluate: bool = True
    ) -> Dict[str, Any]:
        """Every shard's :meth:`local_snapshot` — ``{"shards": {name:
        snapshot}, "missing": [...]}``, the report every view prints."""
        results, missing = self._federate(
            "snapshot", drain=drain, evaluate=evaluate
        )
        return {"shards": results, "missing": missing}

    def trace_ids(self) -> Dict[str, Any]:
        results, missing = self._federate("trace_ids")
        return {"shards": results, "missing": missing}

    def fetch_trace(self, uid: str) -> Dict[str, Any]:
        """Pull every shard's spans for ``uid`` and assemble one tree
        with per-hop latency and a critical path."""
        results, missing = self._federate("trace_fetch", uid=uid)
        return assemble_trace(
            uid, list(results.values()), missing, self.shard_name
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
    local_shard: str,
) -> Dict[str, Any]:
    """Merge per-shard span sets into one tree (a plain JSON-ish dict: it
    crosses the command pipe to the CLI).

    Origin partials and finished traces overlap on the publisher-side
    spans, so duplicates are dropped; every shard stamps spans from the
    host's one monotonic clock, so the rest are listed by their recorded
    start. A hop is one forwarded delivery: from the end of the origin's
    ``transport.forward`` to the start of the ``broker.route`` it caused
    on the receiving shard — the k-th forward pairs with the k-th route
    recorded on a shard that forwarded nothing (the link is FIFO). Its
    transit is negative when the receiver began routing before the
    sender's pipe write returned.
    """
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
    spans.sort(key=lambda s: s["start"])
    forwards = [s for s in spans if s["stage"] == STAGE_FORWARD]
    origins = {s["shard"] for s in forwards}
    arrivals = [
        s for s in spans
        if s["stage"] == STAGE_ROUTE and s["shard"] not in origins
    ]
    hops = [
        {
            "from": forward["shard"],
            "to": route["shard"],
            "transit": route["start"] - (forward["start"] + forward["duration"]),
        }
        for forward, route in zip(forwards, arrivals)
    ]
    critical = []
    for stage in CRITICAL_CHAIN:
        candidates = [s for s in spans if s["stage"] == stage]
        if candidates:
            critical.append(
                max(candidates, key=lambda s: s["start"] + s["duration"])
            )
    critical.sort(key=lambda s: s["start"])
    end_to_end = 0.0
    if critical:
        end_to_end = (
            max(s["start"] + s["duration"] for s in critical)
            - critical[0]["start"]
        )
    return {
        "uid": uid,
        "assembled_by": local_shard,
        "found": any(r.get("found") for r in shard_results),
        "spans": spans,
        "shards": sorted({s["shard"] for s in spans}),
        "missing": sorted(missing),
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
        lines.append(
            f"  [{span['shard']}] {span['stage']:<24} "
            f"+{(span['start'] - base) * 1000:9.3f} ms  "
            f"{span['duration'] * 1000:9.3f} ms"
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
    return lines


# -- cluster quiescence ------------------------------------------------------


def cluster_quiesce(
    ecosystem: Any, timeout: float = 30.0, poll_interval: float = 0.02
) -> int:
    """Drain the whole mesh from inside one shard: poll the installed
    plane's federated ``snapshot`` (with ``drain=True``, so each shard
    drains its own queues as part of answering) until all reachable
    shards are idle and the forwarded-payload counters balance, stable
    across :data:`QUIESCENT_POLLS` consecutive polls.

    When a peer is unreachable (a crash-recovery phase kills shards on
    purpose), sent==received can never balance — the dead shard's
    counters are gone — so the criterion degrades to the *live* shards
    being idle with stable counters. Returns the number of polls; raises
    :class:`TransportTimeout` if the deadline passes first.
    """
    deadline = time.monotonic() + timeout
    stable = 0
    last: Optional[Tuple] = None
    polls = 0
    while time.monotonic() < deadline:
        polls += 1
        report = ecosystem.cluster.snapshot(drain=True, evaluate=False)
        dead = report["missing"]
        states = list(report["shards"].values())
        if states and all(state["idle"] for state in states):
            sent = sum(state["sent"] for state in states)
            received = sum(state["received"] for state in states)
            if sent == received or dead:
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
