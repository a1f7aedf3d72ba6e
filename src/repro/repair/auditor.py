"""The ReplicationAuditor: digest comparison + watermark lag accounting.

An audit answers two questions per (publisher, subscriber) pair:

1. **Is the subscriber behind, and is it lag or loss?** The lag
   monitor's reading of the link (:meth:`LagMonitor.link`: queued,
   delivered-but-unacked and outbox-tail messages, version-store
   watermark deficits) distinguishes the two: divergence *with*
   messages still in transit is ordinary lag and will heal by draining;
   divergence with nothing in transit and a persistent counter deficit
   is the §6.5 loss signature and needs repair.
2. **Exactly which objects diverge?** Per-model digests — one
   ``{id: row hash}`` map per side — are compared in one pass.

Audits read raw mapper rows and version-store counters only — they
never publish, lock, or perturb the pipeline, so a periodic audit is
safe to run against a live ecosystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import SynapseError
from repro.repair.digest import ModelDigest, subscriber_model_digest
from repro.runtime.monitor.lag import LinkHealth
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

    @property
    def in_sync(self) -> bool:
        return not self.divergent_ids


@dataclass
class AuditReport:
    """Everything one audit run learned about one subscriber service."""

    subscriber: str
    models: List[ModelAudit] = field(default_factory=list)
    #: publisher app -> the monitor's reading of the link.
    lag: Dict[str, LinkHealth] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def divergent_total(self) -> int:
        return sum(len(m.divergent_ids) for m in self.models)

    @property
    def in_sync(self) -> bool:
        return self.divergent_total == 0

    @property
    def suspected_loss(self) -> bool:
        """Divergence while nothing is in transit on any audited link:
        the messages that would have healed it are gone (§6.5), not
        merely late."""
        return self.divergent_total > 0 and all(
            link.in_transit == 0 for link in self.lag.values()
        )

    def divergent_for(self, publisher: str, model_name: str) -> List[Any]:
        for audit in self.models:
            if (audit.publisher, audit.model_name) == (publisher, model_name):
                return list(audit.divergent_ids)
        return []

    def summary_lines(self) -> List[str]:
        """Human-readable rendering for the CLI and demos."""
        lines = [f"audit of subscriber {self.subscriber!r}:"]
        lines += ["  " + self.lag[app].summary_line() for app in sorted(self.lag)]
        for audit in self.models:
            status = "in sync" if audit.in_sync else (
                f"DIVERGED ids={sorted(audit.divergent_ids, key=repr)}"
            )
            lines.append(
                f"  {audit.publisher}/{audit.model_name}: "
                f"{audit.publisher_objects} vs {audit.subscriber_objects} "
                f"objects — {status}"
            )
        verdict = "replicas digest-equal" if self.in_sync else (
            "suspected LOSS (idle queues, persistent divergence)"
            if self.suspected_loss else "divergence may be transit lag"
        )
        lines.append(f"  verdict: {verdict}")
        return lines


class ReplicationAuditor:
    """On-demand divergence auditor for one subscriber."""

    def __init__(self, service: Any) -> None:
        self.service = service
        registry = service.ecosystem.metrics
        self._audits = registry.counter(f"repair.{service.name}.audits")
        self._divergent = registry.counter(f"repair.{service.name}.divergent_objects")
        self._audit_time = registry.histogram(f"repair.{service.name}.audit_time")

    # ------------------------------------------------------------------

    def audit(self, publisher_name: Optional[str] = None) -> AuditReport:
        service = self.service
        clock = service.ecosystem.clock
        tracer = service.ecosystem.tracer
        trace = tracer.begin(service.name)
        start = clock.monotonic()
        report = AuditReport(subscriber=service.name)

        apps = sorted({spec.from_app for spec in service.subscriber.specs.values()})
        if publisher_name is not None:
            if publisher_name not in apps:
                raise SynapseError(
                    f"{service.name!r} does not subscribe to {publisher_name!r}"
                )
            apps = [publisher_name]

        for app in apps:
            report.lag[app] = service.ecosystem.monitor.link(app, service.name)
        for (from_app, model_name), spec in sorted(service.subscriber.specs.items()):
            if from_app not in apps:
                continue
            audit = self._audit_model(from_app, spec, trace)
            if audit is not None:
                report.models.append(audit)

        report.elapsed = clock.monotonic() - start
        self._audits.increment()
        self._divergent.increment(report.divergent_total)
        self._audit_time.record(report.elapsed)
        if trace is not None:
            tracer.record(trace)
        if report.divergent_total:
            # Suspected loss (idle queues + persistent divergence) is the
            # §6.5 signature: an anomaly, so the evidence gets dumped.
            # Divergence with traffic still in transit is ordinary lag.
            kind = "audit.suspected_loss" if report.suspected_loss \
                else "audit.divergence"
            service.ecosystem.recorder.record_event(
                kind,
                severity="anomaly" if report.suspected_loss else "info",
                subscriber=service.name,
                divergent_objects=report.divergent_total,
                version_lag=sum(r.version_lag for r in report.lag.values()),
            )
        return report

    # ------------------------------------------------------------------

    def _audit_model(self, app: str, spec: Any, trace: Any) -> Optional[ModelAudit]:
        service = self.service
        digest_start = trace_now() if trace is not None else 0.0
        # Digest exchange: the publisher's handler builds and serializes
        # its digest; only ids and hashes cross the service boundary.
        pub_digest = service.ecosystem.control.model_digest(
            app, spec.model_name, remote_fields=list(spec.readable),
        )
        sub_digest = subscriber_model_digest(service, spec)
        if trace is not None:
            trace.add(STAGE_AUDIT_DIGEST, digest_start, trace_now() - digest_start)
        if pub_digest is None or sub_digest is None:
            return None  # DB-less on either side: nothing to digest
        diff_start = trace_now() if trace is not None else 0.0
        divergent = pub_digest.divergent_ids(sub_digest)
        if service.subscriber.is_multi_publisher(spec):
            # Fig 3: the local table merges rows from several publishers;
            # rows this publisher does not own are not divergence.
            divergent = [i for i in divergent if i in pub_digest.objects]
        if trace is not None:
            trace.add(STAGE_AUDIT_DIFF, diff_start, trace_now() - diff_start)
        return ModelAudit(
            publisher=app,
            model_name=spec.model_name,
            fields=pub_digest.fields,
            publisher_objects=len(pub_digest.objects),
            subscriber_objects=len(sub_digest.objects),
            divergent_ids=divergent,
        )


# Re-exported for callers that only need the dataclass names.
__all__ = [
    "AuditReport",
    "ModelAudit",
    "ModelDigest",
    "ReplicationAuditor",
]
