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

    Admission: credits refill to ``high_watermark x capacity`` whenever
    the queue drains below ``low_watermark x capacity``; once they are
    exhausted the queue is in the graduated zone between the high
    watermark and the §4.4 kill cliff, where weak-mode publishes are
    shed and stronger modes are admitted-but-throttled. ``capacity``
    overrides the per-queue ``max_size`` as the credit base; with both
    unset, admission is disabled (coalescing and batching still run).
    """

    high_watermark: float = 0.75
    low_watermark: float = 0.5
    capacity: Optional[int] = None
    shed_weak: bool = True
    #: Seconds the broker stalls a publish while a target queue is out
    #: of credits (scaled by how deep into the red zone it is). 0 keeps
    #: publishes non-blocking — the default for tests and conformance.
    throttle_delay: float = 0.0

    coalesce: bool = True
    #: How far back from the tail of the queue the causal/global safety
    #: scan will look for the coalesce candidate before giving up.
    coalesce_window: int = 32

    batch_min: int = 1
    batch_max: int = 16
    #: AIMD: batch size grows by ``aimd_increase`` after a full clean
    #: batch and shrinks by ``aimd_decrease`` when dependency retries or
    #: apply errors dominate.
    aimd_increase: int = 2
    aimd_decrease: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                "need 0 < low_watermark < high_watermark <= 1, got "
                f"low={self.low_watermark} high={self.high_watermark}"
            )
        if self.capacity is not None and self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if not 1 <= self.batch_min <= self.batch_max:
            raise ValueError(
                f"need 1 <= batch_min <= batch_max, got "
                f"min={self.batch_min} max={self.batch_max}"
            )
        if self.aimd_increase < 1:
            raise ValueError(f"aimd_increase must be >= 1, got {self.aimd_increase}")
        if not 0.0 < self.aimd_decrease < 1.0:
            raise ValueError(
                f"aimd_decrease must be in (0, 1), got {self.aimd_decrease}"
            )
        if self.throttle_delay < 0:
            raise ValueError(f"throttle_delay must be >= 0, got {self.throttle_delay}")
