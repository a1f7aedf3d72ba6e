"""Flow-control tunables.

One frozen config object shared by admission control (watermarks,
credits), coalescing and the batched-apply path. Defaults are chosen so
``FlowConfig()`` is safe everywhere: no throttle sleeps (deterministic
tests), credit capacity inherited from each queue's ``max_size``.
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
    admitted-but-throttled. ``capacity`` overrides the per-queue
    ``max_size`` as the credit base; with both unset, admission is
    disabled (coalescing and batching still run).
    """

    capacity: Optional[int] = None
    shed_weak: bool = True
    #: Seconds the broker stalls a publish while a target queue is out
    #: of credits (scaled by how deep into the red zone it is). 0 keeps
    #: publishes non-blocking — the default for tests and conformance.
    throttle_delay: float = 0.0

    coalesce: bool = True

    #: Bounds of the AIMD batch sizer (``batch.py``).
    batch_min: int = 1
    batch_max: int = 16

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if not 1 <= self.batch_min <= self.batch_max:
            raise ValueError(
                f"need 1 <= batch_min <= batch_max, got "
                f"min={self.batch_min} max={self.batch_max}"
            )
        if self.throttle_delay < 0:
            raise ValueError(f"throttle_delay must be >= 0, got {self.throttle_delay}")
