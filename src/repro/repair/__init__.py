"""Anti-entropy: replica digests, lag auditing and targeted repair.

The paper's only remedy for lost write-messages is heavyweight: the
§6.5 production incident (message loss → causal deadlock) ends in a
queue decommission and a full §4.4 re-bootstrap of the subscriber —
O(dataset) work to heal what may be a single lost message. This
subsystem makes divergence *detectable* and *repairable* at fine grain:

- :mod:`repro.repair.digest` computes per-model **replica digests** —
  ``{object id: row hash}`` maps over the published-attribute
  projection, built through the per-engine mappers so a relational
  publisher and a document/graph/search subscriber hash identical
  logical rows;
- :mod:`repro.repair.auditor` runs the **ReplicationAuditor**, comparing
  publisher vs subscriber digests plus the lag monitor's reading of each
  link to tell transit *lag* (messages queued or in flight) from
  *loss* (divergence with an idle queue), pinpointing divergent objects
  by comparing the two maps;
- :mod:`repro.repair.repairer` performs **targeted repair**: a bootstrap
  scoped to the divergent objects, so recovery transfers and writes
  O(divergence) rows instead of O(dataset), no queue is decommissioned
  and nothing is published.
"""

from repro.repair.auditor import (
    AuditReport,
    ModelAudit,
    ReplicationAuditor,
)
from repro.repair.digest import (
    ModelDigest,
    publisher_model_digest,
    row_digest,
    subscriber_model_digest,
)
from repro.repair.repairer import RepairResult, repair_subscriber

__all__ = [
    "AuditReport",
    "ModelAudit",
    "ModelDigest",
    "RepairResult",
    "ReplicationAuditor",
    "publisher_model_digest",
    "repair_subscriber",
    "row_digest",
    "subscriber_model_digest",
]
