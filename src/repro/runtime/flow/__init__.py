"""Flow control for the publish→route→apply pipeline.

Two cooperating pieces, enabled together via
``Ecosystem.enable_flow`` (until then ``eco.flow`` is :data:`FLOW_OFF`,
which admits everything, coalesces nothing and pops one message at a
time):

- :mod:`repro.runtime.flow.admission` — credit-based graduated
  backpressure in front of the §4.4 kill cliff (shed weak publishes,
  throttle stronger modes, kill only as the last resort);
- :mod:`repro.runtime.flow.coalesce` — semantics-aware collapsing of
  consecutive queued writes to the same object.

A subscriber pops up to ``FlowConfig.batch_max`` deliveries at once
(``SubscriberQueue.pop_many``) and applies them one at a time
(``SynapseSubscriber.process_batch``).

See ``docs/flow_control.md`` for the full design.
"""

from repro.runtime.flow.admission import (
    ADMIT,
    FLOW_OFF,
    SHED,
    STATE_OPEN,
    STATE_SHEDDING,
    STATE_THROTTLED,
    FlowController,
    FlowOff,
    QueueFlow,
)
from repro.runtime.flow.coalesce import (
    coalesce_key,
    merge_into,
    raised_waits,
    union_conflicts,
)
from repro.runtime.flow.config import FlowConfig

__all__ = [
    "ADMIT",
    "FLOW_OFF",
    "SHED",
    "STATE_OPEN",
    "STATE_SHEDDING",
    "STATE_THROTTLED",
    "FlowConfig",
    "FlowController",
    "FlowOff",
    "QueueFlow",
    "coalesce_key",
    "merge_into",
    "raised_waits",
    "union_conflicts",
]
