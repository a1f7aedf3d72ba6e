"""Flow-control tunables.

One frozen config object shared by admission control (watermarks,
credits), coalescing and the batched pop. ``FlowConfig()`` is safe
everywhere: credit capacity is inherited from each queue's ``max_size``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FlowConfig:
    """Tunables for the flow-control subsystem.

    Admission: credits refill to the high watermark (a fixed fraction
    of ``capacity``, see ``admission.py``) whenever the queue drains
    below the low one; once they are exhausted the queue is in the
    graduated zone between the high watermark and the §4.4 kill cliff,
    where weak-mode publishes are shed and stronger modes are
    admitted-but-throttled (counted, never stalled). ``capacity``
    overrides the per-queue ``max_size`` as the credit base; with both
    unset, admission is disabled (coalescing and batching still run).
    """

    capacity: Optional[int] = None
    coalesce: bool = True

    #: The most deliveries one pop hands the subscriber (drain, pool
    #: workers and the conformance harness alike).
    batch_max: int = 16

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
