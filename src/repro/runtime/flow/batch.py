"""AIMD batch sizing for the batched-apply path.

The batch size is a throughput/latency dial: big batches amortise the
dependency verification and engine transaction across many messages
(drain mode), small batches keep per-message latency low when the link
is healthy. The sizer moves it with two signals:

- **Per-batch outcome** (additive increase / multiplicative decrease):
  a full batch that applied cleanly means there is backlog worth
  draining harder; a batch dominated by dependency retries or apply
  errors means the verify work is being wasted, so back off fast.
- **Link pressure** from the PR-4 ``LagMonitor``: sustained lag over
  the SLO pushes toward ``batch_max`` regardless of batch outcomes,
  and a comfortably healthy link decays back toward ``batch_min``.
"""

from __future__ import annotations

import threading

from repro.runtime.flow.config import FlowConfig

#: AIMD: the batch size grows by ``AIMD_INCREASE`` after a full clean
#: batch and shrinks to ``AIMD_DECREASE`` of itself when dependency
#: retries or apply errors dominate.
AIMD_INCREASE = 2
AIMD_DECREASE = 0.5


class BatchSizer:
    """Thread-safe AIMD controller shared by a pool's workers."""

    def __init__(self, config: FlowConfig) -> None:
        self.config = config
        self._current = config.batch_min
        self._lock = threading.Lock()

    @property
    def current(self) -> int:
        with self._lock:
            return self._current

    def on_batch(self, popped: int, applied: int, failed: int) -> int:
        """Feed one batch outcome; returns the new size."""
        config = self.config
        with self._lock:
            if failed and failed * 2 >= max(1, popped):
                self._current = max(
                    config.batch_min, int(self._current * AIMD_DECREASE)
                )
            elif failed == 0 and popped >= self._current:
                self._current = min(
                    config.batch_max, self._current + AIMD_INCREASE
                )
            return self._current

    def observe_pressure(self, pressure: float) -> int:
        """Feed a LagMonitor signal (window p99 / SLO p99).

        ``> 1`` means the link is over budget — drain harder; ``< 0.25``
        means plenty of headroom — decay toward low-latency singles.
        """
        config = self.config
        with self._lock:
            if pressure > 1.0:
                self._current = min(
                    config.batch_max, self._current + AIMD_INCREASE
                )
            elif pressure < 0.25 and self._current > config.batch_min:
                self._current -= 1
            return self._current
