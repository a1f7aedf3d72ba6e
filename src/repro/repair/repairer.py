"""Targeted repair: re-publish only the divergent objects.

The paper's §6.5 remedy for lost write-messages is a queue decommission
followed by a full §4.4 re-bootstrap — O(dataset) to heal what may be a
handful of lost messages. Targeted repair instead walks an audit
report's divergent ids and re-publishes exactly those objects through
the one publisher path (``SynapsePublisher.publish_repair``): write-dep
locks, version-store counter bumps, the Fig 6(b) wire format, sampled
tracing and broker fan-out, so repair traffic is ordinary (versioned,
ordered, traced) pub/sub traffic.

Repair messages are flagged ``repair=True``. The subscriber applies
them with fresh-or-discard semantics and *always* fast-forwards each
object's dependency counter to the carried version — healing the
counter deficit a lost message left behind, which is what un-wedges a
causally deadlocked queue without decommissioning it. Rows the
publisher no longer holds are repaired as delete operations, removing
subscriber-side ghosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import SynapseError
from repro.repair.auditor import AuditReport, ReplicationAuditor

#: Divergent objects batched per repair message. Small enough that one
#: repair message stays comparable to ordinary transactional messages,
#: large enough to amortise lock/version round trips.
REPAIR_BATCH_SIZE = 25


@dataclass
class RepairResult:
    """What one repair run did, and whether it worked."""

    subscriber: str
    #: (publisher, model_name) -> ids re-published (updates and deletes).
    repaired: Dict[Any, List[Any]] = field(default_factory=dict)
    messages_published: int = 0
    deletes_published: int = 0
    #: The audit that drove the repair.
    audit: Optional[AuditReport] = None
    #: Post-repair audit (None when ``reaudit=False``).
    verification: Optional[AuditReport] = None

    @property
    def objects_repaired(self) -> int:
        return sum(len(ids) for ids in self.repaired.values())

    @property
    def verified_in_sync(self) -> bool:
        return self.verification is not None and self.verification.in_sync

    def summary_lines(self) -> List[str]:
        lines = [f"repair of subscriber {self.subscriber!r}:"]
        for (publisher, model_name), ids in sorted(self.repaired.items()):
            lines.append(
                f"  {publisher}/{model_name}: re-published "
                f"{sorted(ids, key=repr)}"
            )
        lines.append(
            f"  {self.objects_repaired} objects in "
            f"{self.messages_published} repair messages "
            f"({self.deletes_published} deletes)"
        )
        if self.verification is not None:
            lines.append(
                "  post-repair audit: "
                + ("replicas digest-equal" if self.verified_in_sync
                   else f"{self.verification.divergent_total} still divergent")
            )
        return lines


def repair_subscriber(
    service: Any,
    publisher_name: Optional[str] = None,
    report: Optional[AuditReport] = None,
    reaudit: bool = True,
    batch_size: int = REPAIR_BATCH_SIZE,
) -> RepairResult:
    """Audit (unless ``report`` is given), re-publish divergent objects,
    drain the subscriber, and re-audit to verify digest equality. An
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
    registry = service.ecosystem.metrics

    control = service.ecosystem.control
    for audit in report.models:
        if not audit.divergent_ids:
            continue
        if not control.known(audit.publisher):
            raise SynapseError(
                f"cannot repair from unknown publisher {audit.publisher!r}"
            )
        # The repair trigger is a control-plane request: the publisher's
        # own handler re-publishes the divergent objects, wherever (and
        # in whichever process) that publisher lives.
        outcome = control.publish_repairs(
            audit.publisher, audit.model_name, audit.divergent_ids,
            batch_size=batch_size,
        )
        ids = outcome["ids"]
        result.messages_published += outcome["messages_published"]
        result.deletes_published += outcome["deletes_published"]
        registry.counter(
            f"repair.{audit.publisher}.republished"
        ).increment(len(ids))
        result.repaired[(audit.publisher, audit.model_name)] = ids

    # Repair messages flow through the ordinary queue; drain applies them.
    service.subscriber.drain()
    if reaudit:
        result.verification = auditor.audit(publisher_name)
    recorder = getattr(service.ecosystem, "recorder", None)
    if recorder is not None:
        recorder.record_event(
            "repair.run",
            subscriber=service.name,
            objects_repaired=result.objects_repaired,
            messages_published=result.messages_published,
            deletes_published=result.deletes_published,
            verified_in_sync=result.verified_in_sync,
        )
    return result


def publish_repairs(
    publisher_service: Any,
    model_name: str,
    divergent_ids: List[Any],
    batch_size: int = REPAIR_BATCH_SIZE,
) -> Dict[str, Any]:
    """Re-publish ``divergent_ids`` of one model as repair messages.

    Publisher-side: runs under the publisher's own control-plane handler
    (``publish_repairs`` op), so the subscriber that requested the repair
    never touches this service's objects. Returns a JSON-serializable
    summary: ``{"ids", "messages_published", "deletes_published"}``.
    """
    summary: Dict[str, Any] = {
        "ids": [], "messages_published": 0, "deletes_published": 0,
    }
    model_cls = publisher_service.registry.get(model_name)
    if model_cls is None or model_cls.__mapper__ is None \
            or model_cls.__mapper__.db is None:
        return summary
    pub_fields = publisher_service.published_fields_for(model_cls)
    if pub_fields is None:
        return summary
    mapper = model_cls.__mapper__
    repaired: List[Any] = []

    for start in range(0, len(divergent_ids), batch_size):
        ops = []
        for row_id in divergent_ids[start:start + batch_size]:
            row = mapper._do_find(row_id)
            if row is None:
                # The publisher no longer holds it: the subscriber's copy
                # is a ghost — repair it away with a bare delete.
                ops.append(("delete", model_cls, {"id": row_id}, []))
                summary["deletes_published"] += 1
            else:
                ops.append(("update", model_cls, row, pub_fields))
            repaired.append(row_id)
        publisher_service.publisher.publish_repair(ops)
        summary["messages_published"] += 1
    summary["ids"] = repaired
    return summary
