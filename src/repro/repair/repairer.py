"""Targeted repair: bootstrap restricted to the divergent objects.

The paper's §6.5 remedy for lost write-messages is a queue decommission
followed by a full §4.4 re-bootstrap — O(dataset) to heal what may be a
handful of lost messages. Targeted repair is that same bootstrap with a
scope: audit, then :func:`repro.core.bootstrap.bootstrap_subscriber`
over the audit's divergent ids, with the audit's counter deficits as
the counters it reads besides theirs, then re-audit. The bootstrap
enters the publisher's generation, lands each divergent row unless the
local counter is already past the step-1 snapshot's (a row the
publisher no longer holds comes as a delete, removing a ghost), drains,
and — once nothing is queued or unacked — raises the deficient counters
no write-message carries for an object it writes: a session user's,
``__global__``. That is what un-wedges a deadlocked queue without
decommissioning it. It then checkpoints. Nothing is published: no other
subscriber sees a heal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.bootstrap import bootstrap_subscriber
from repro.repair.auditor import AuditReport, ReplicationAuditor


@dataclass
class RepairResult:
    """What one repair run did, and whether it worked."""

    subscriber: str
    #: (publisher, model_name) -> ids transferred (updates and deletes).
    repaired: Dict[Any, List[Any]] = field(default_factory=dict)
    #: Transferred rows that landed (the rest were already past).
    landed: int = 0
    #: Landed deletes: divergent ids the publisher no longer holds.
    deletes: int = 0
    #: The audit that drove the repair.
    audit: Optional[AuditReport] = None
    #: Post-repair audit (None when ``reaudit=False``).
    verification: Optional[AuditReport] = None
    #: What the queue still waits on after the bootstrap's drain
    #: (``stuck_dependencies()``: dep -> (required, current)).
    stuck: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def objects_repaired(self) -> int:
        return sum(len(ids) for ids in self.repaired.values())

    @property
    def verified_in_sync(self) -> bool:
        """Digest-equal replicas, no counter deficit and nothing left
        waiting: the next write lands by a drain alone. Equal rows over
        a wedged queue are not a heal."""
        verification = self.verification
        return (
            verification is not None and verification.in_sync and not self.stuck
            and not any(lag.version_lag for lag in verification.lag.values())
        )

    def summary_lines(self) -> List[str]:
        lines = [f"repair of subscriber {self.subscriber!r}:"]
        for (publisher, model_name), ids in sorted(self.repaired.items()):
            lines.append(
                f"  {publisher}/{model_name}: transferred "
                f"{sorted(ids, key=repr)}"
            )
        lines.append(
            f"  {self.objects_repaired} objects transferred, "
            f"{self.landed} rows landed ({self.deletes} deletes)"
        )
        if self.verification is not None:
            lines.append(
                "  post-repair audit: "
                + ("replicas digest-equal" if self.verification.in_sync
                   else f"{self.verification.divergent_total} still divergent")
                + (", verified in sync" if self.verified_in_sync else
                   ", NOT verified: version_lag "
                   f"{sum(lag.version_lag for lag in self.verification.lag.values())}"
                   f", stuck after the drain {self.stuck}")
            )
        return lines


def repair_subscriber(
    service: Any,
    publisher_name: Optional[str] = None,
    report: Optional[AuditReport] = None,
    reaudit: bool = True,
) -> RepairResult:
    """Audit (unless ``report`` is given), bootstrap the divergent
    objects (which drains and checkpoints), and re-audit to verify. An
    audit that finds nothing divergent is its own verification."""
    auditor = ReplicationAuditor(service)
    if report is None:
        report = auditor.audit(publisher_name)
    result = RepairResult(subscriber=service.name, audit=report)
    if report.in_sync:
        # Nothing diverged, so no repair runs: no second audit, no
        # ``repair.run`` event in the postmortem timeline.
        if reaudit:
            result.verification = report
        return result

    result.repaired = {
        (audit.publisher, audit.model_name): audit.divergent_ids
        for audit in report.models if audit.divergent_ids
    }
    landed = bootstrap_subscriber(
        service, scope=result.repaired,
        behind=[dep for lag in report.lag.values() for dep in lag.deficits],
    )
    result.landed = len(landed)
    result.deletes = sum(operation["operation"] == "delete" for operation in landed)
    service.ecosystem.metrics.counter(
        f"repair.{service.name}.applied_objects"
    ).increment(result.landed)
    result.stuck = service.subscriber.stuck_dependencies()
    if reaudit:
        result.verification = auditor.audit(publisher_name)
    service.ecosystem.recorder.record_event(
        "repair.run",
        subscriber=service.name,
        objects_repaired=result.objects_repaired,
        landed=result.landed,
        deletes=result.deletes,
        verified_in_sync=result.verified_in_sync,
    )
    return result
