"""The ReplicationAuditor: digest comparison + watermark lag accounting.

An audit answers two questions per (publisher, subscriber) pair:

1. **Is the subscriber behind, and is it lag or loss?** Broker queue
   stats (queued + delivered-but-unacked) and version-store watermark
   deficits distinguish the two: divergence *with* messages still in
   transit is ordinary lag and will heal by draining; divergence with an
   idle queue and a persistent counter deficit is the §6.5 loss
   signature and needs repair.
2. **Exactly which objects diverge?** Per-model Merkle digests are
   compared by descent, touching only the differing subtrees.

Audits read raw mapper rows and version-store counters only — they
never publish, lock, or perturb the pipeline, so a periodic audit is
safe to run against a live ecosystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import SynapseError
from repro.repair.digest import (
    DEFAULT_LEAVES,
    ModelDigest,
    subscriber_model_digest,
)
from repro.runtime.tracing import STAGE_AUDIT_DIFF, STAGE_AUDIT_DIGEST, trace_now


@dataclass
class ModelAudit:
    """Digest comparison of one subscribed model against its publisher."""

    publisher: str
    model_name: str
    fields: List[str]
    publisher_objects: int
    subscriber_objects: int
    divergent_ids: List[Any]
    #: Merkle nodes compared during descent (1 when roots match).
    nodes_compared: int
    publisher_root: str
    subscriber_root: str

    @property
    def in_sync(self) -> bool:
        return not self.divergent_ids


@dataclass
class LagReport:
    """Transit/watermark accounting for one publisher binding."""

    queued: int = 0
    in_flight: int = 0
    published: int = 0
    acked: int = 0
    decommissioned: bool = False
    #: Sum of per-dependency version-counter deficits vs the publisher.
    version_lag: int = 0
    #: Deficit attributable to deliberate flow-control shedding,
    #: already excluded from ``version_lag`` (backpressure, not loss).
    shed_deficit: int = 0
    #: Committed-but-unpublished CDC outbox entries on the publisher.
    #: Outbox-tail lag is transit, not §6.5 loss: the entries are
    #: durable and the poller will publish them (docs/cdc.md).
    outbox_pending: int = 0

    @property
    def in_transit(self) -> int:
        return self.queued + self.in_flight + self.outbox_pending


@dataclass
class AuditReport:
    """Everything one audit run learned about one subscriber service."""

    subscriber: str
    models: List[ModelAudit] = field(default_factory=list)
    #: publisher app -> transit/watermark lag.
    lag: Dict[str, LagReport] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def divergent_total(self) -> int:
        return sum(len(m.divergent_ids) for m in self.models)

    @property
    def in_sync(self) -> bool:
        return self.divergent_total == 0

    @property
    def suspected_loss(self) -> bool:
        """Divergence while nothing is queued or in flight: the messages
        that would have healed it are gone (§6.5), not merely late."""
        return self.divergent_total > 0 and all(
            report.in_transit == 0 for report in self.lag.values()
        )

    def divergent_for(self, publisher: str, model_name: str) -> List[Any]:
        for audit in self.models:
            if (audit.publisher, audit.model_name) == (publisher, model_name):
                return list(audit.divergent_ids)
        return []

    def summary_lines(self) -> List[str]:
        """Human-readable rendering for the CLI and demos."""
        lines = [f"audit of subscriber {self.subscriber!r}:"]
        for app, report in sorted(self.lag.items()):
            state = "DECOMMISSIONED" if report.decommissioned else (
                "in transit" if report.in_transit else "idle"
            )
            line = (
                f"  {app}: queued={report.queued} in_flight={report.in_flight} "
                f"version_lag={report.version_lag}"
            )
            if report.shed_deficit:
                line += f" shed_deficit={report.shed_deficit}"
            if report.outbox_pending:
                line += f" outbox_pending={report.outbox_pending}"
            lines.append(line + f" [{state}]")
        for audit in self.models:
            status = "in sync" if audit.in_sync else (
                f"DIVERGED ids={sorted(audit.divergent_ids, key=repr)}"
            )
            lines.append(
                f"  {audit.publisher}/{audit.model_name}: "
                f"{audit.publisher_objects} vs {audit.subscriber_objects} objects, "
                f"{audit.nodes_compared} merkle nodes compared — {status}"
            )
        verdict = "replicas digest-equal" if self.in_sync else (
            "suspected LOSS (idle queues, persistent divergence)"
            if self.suspected_loss else "divergence may be transit lag"
        )
        lines.append(f"  verdict: {verdict}")
        return lines


class ReplicationAuditor:
    """Periodic (or on-demand) divergence auditor for one subscriber.

    ``interval`` (seconds, ecosystem clock) gates :meth:`maybe_audit`
    for callers that poll from a worker loop; :meth:`audit` always runs.
    """

    def __init__(self, service: Any, leaves: int = DEFAULT_LEAVES,
                 interval: Optional[float] = None) -> None:
        self.service = service
        self.leaves = leaves
        self.interval = interval
        self._last_run: Optional[float] = None
        registry = service.ecosystem.metrics
        self._audits = registry.counter(f"repair.{service.name}.audits")
        self._divergent = registry.counter(f"repair.{service.name}.divergent_objects")
        self._nodes = registry.counter(f"repair.{service.name}.merkle_nodes_compared")
        self._audit_time = registry.histogram(f"repair.{service.name}.audit_time")

    # ------------------------------------------------------------------

    def maybe_audit(self, publisher_name: Optional[str] = None) -> Optional[AuditReport]:
        """Run an audit if ``interval`` has elapsed since the last one."""
        clock = self.service.ecosystem.clock
        now = clock.monotonic()
        if (
            self.interval is not None
            and self._last_run is not None
            and now - self._last_run < self.interval
        ):
            return None
        return self.audit(publisher_name)

    def audit(self, publisher_name: Optional[str] = None) -> AuditReport:
        service = self.service
        clock = service.ecosystem.clock
        tracer = service.ecosystem.tracer
        trace = tracer.begin(service.name)
        start = clock.monotonic()
        self._last_run = start
        report = AuditReport(subscriber=service.name)

        apps = sorted({spec.from_app for spec in service.subscriber.specs.values()})
        if publisher_name is not None:
            if publisher_name not in apps:
                raise SynapseError(
                    f"{service.name!r} does not subscribe to {publisher_name!r}"
                )
            apps = [publisher_name]

        for app in apps:
            report.lag[app] = self._lag_report(app)
        for (from_app, model_name), spec in sorted(service.subscriber.specs.items()):
            if from_app not in apps:
                continue
            audit = self._audit_model(from_app, spec, trace)
            if audit is not None:
                report.models.append(audit)

        report.elapsed = clock.monotonic() - start
        self._audits.increment()
        self._divergent.increment(report.divergent_total)
        self._nodes.increment(sum(m.nodes_compared for m in report.models))
        self._audit_time.record(report.elapsed)
        if trace is not None:
            tracer.record(trace)
        recorder = getattr(service.ecosystem, "recorder", None)
        if recorder is not None and report.divergent_total:
            # Suspected loss (idle queues + persistent divergence) is the
            # §6.5 signature: an anomaly, so the evidence gets dumped.
            # Divergence with traffic still in transit is ordinary lag.
            kind = "audit.suspected_loss" if report.suspected_loss \
                else "audit.divergence"
            recorder.record_event(
                kind,
                severity="anomaly" if report.suspected_loss else "info",
                subscriber=service.name,
                divergent_objects=report.divergent_total,
                version_lag=sum(r.version_lag for r in report.lag.values()),
            )
        return report

    # ------------------------------------------------------------------

    def _lag_report(self, app: str) -> LagReport:
        service = self.service
        report = LagReport()
        stats = service.broker.queue_stats(service.name).get(service.name)
        if stats is not None:
            report.queued = stats["queued"]
            report.in_flight = stats["in_flight"]
            report.published = stats["published"]
            report.acked = stats["acked"]
            report.decommissioned = bool(stats["decommissioned"])
        # CDC outbox tail on the publisher: committed raw writes the
        # poller has not published yet count as in transit, so an audit
        # taken mid-tail reports lag rather than suspected loss.
        report.outbox_pending = service.ecosystem.control.outbox_lag(app)
        # Publisher watermark read: a control-plane request (None when
        # the publisher is unreachable — then lag stays transit-only).
        watermarks = service.ecosystem.control.watermarks(app)
        if watermarks is not None:
            deficits = service.subscriber_version_store.deficits(watermarks)
            # Deliberate flow-control sheds are backpressure, not loss:
            # reconcile the queue's shed ledger (trimmed to what is
            # still unhealed) and keep it out of the loss signal.
            forgiven: Dict[str, int] = {}
            queue = service.subscriber.queue
            if queue is not None and queue.flow is not None:
                forgiven = queue.flow.reconcile_shed(app, deficits)
            report.shed_deficit = sum(forgiven.values())
            report.version_lag = sum(
                max(0, behind - forgiven.get(dep, 0))
                for dep, behind in deficits.items()
            )
        return report

    def _audit_model(self, app: str, spec: Any, trace: Any) -> Optional[ModelAudit]:
        service = self.service
        digest_start = trace_now() if trace is not None else 0.0
        # Merkle digest exchange: the publisher's handler builds and
        # serializes its digest; only hashes cross the service boundary.
        pub_digest = service.ecosystem.control.model_digest(
            app, spec.model_name,
            remote_fields=list(spec.readable), leaves=self.leaves,
        )
        sub_digest = subscriber_model_digest(service, spec, leaves=self.leaves)
        if trace is not None:
            trace.add(STAGE_AUDIT_DIGEST, digest_start, trace_now() - digest_start)
        if pub_digest is None or sub_digest is None:
            return None  # DB-less on either side: nothing to digest
        diff_start = trace_now() if trace is not None else 0.0
        diff = pub_digest.divergent_ids(sub_digest)
        divergent = diff.divergent_ids
        if self._is_multi_publisher(spec):
            # Fig 3: the local table merges rows from several publishers;
            # rows this publisher does not own are not divergence.
            divergent = [i for i in divergent if pub_digest.tree.has(i)]
        if trace is not None:
            trace.add(STAGE_AUDIT_DIFF, diff_start, trace_now() - diff_start)
        return ModelAudit(
            publisher=app,
            model_name=spec.model_name,
            fields=pub_digest.fields,
            publisher_objects=pub_digest.tree.total_objects,
            subscriber_objects=sub_digest.tree.total_objects,
            divergent_ids=divergent,
            nodes_compared=diff.nodes_compared,
            publisher_root=pub_digest.root,
            subscriber_root=sub_digest.root,
        )

    def _is_multi_publisher(self, spec: Any) -> bool:
        return sum(
            1 for other in self.service.subscriber.specs.values()
            if other.model_cls is spec.model_cls
        ) > 1


# Re-exported for callers that only need the dataclass names.
__all__ = [
    "AuditReport",
    "LagReport",
    "ModelAudit",
    "ModelDigest",
    "ReplicationAuditor",
]
