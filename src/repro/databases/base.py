"""Common machinery shared by every in-memory engine.

The engines differ widely in data model and query surface, so the base
class deliberately stays small: identity, statistics, fault injection and
the one engine-wide lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import FaultInjected


@dataclass
class EngineStats:
    """Operation counters maintained by every engine."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    scans: int = 0
    index_lookups: int = 0
    transactions: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        self.scans = 0
        self.index_lookups = 0
        self.transactions = 0


@dataclass
class FaultPlan:
    """Armed fault injection for an engine.

    ``fail_next_writes`` makes the next N write operations raise
    :class:`FaultInjected` (after letting ``skip_next_writes`` through
    first); ``down`` fails every operation until cleared. Every fault is
    armed by a test or scenario, never rolled.
    """

    fail_next_writes: int = 0
    skip_next_writes: int = 0
    down: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def check_write(self) -> None:
        # Nothing armed, nothing to count: no lock. An arm racing this
        # write orders after it.
        if not (self.down or self.skip_next_writes or self.fail_next_writes):
            return
        with self._lock:
            if self.down:
                raise FaultInjected("engine is down")
            if self.skip_next_writes > 0:
                self.skip_next_writes -= 1
                return
            if self.fail_next_writes > 0:
                self.fail_next_writes -= 1
                raise FaultInjected("injected write failure")

    def check_read(self) -> None:
        if self.down:
            raise FaultInjected("engine is down")


class Database:
    """Base class for every engine; ``name`` labels it in diagnostics
    and metrics."""

    #: Marketing-name of the engine family this instance emulates.
    engine_family: str = "abstract"
    #: Whether writes can return the written rows (``RETURNING *``, §4.1).
    supports_returning: bool = False
    #: Whether multi-statement atomic transactions are supported (§4.2).
    supports_transactions: bool = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = EngineStats()
        self.faults = FaultPlan()
        # Optional mirrors into a shared MetricsRegistry; bound by the
        # owning Service so engine op counts appear in snapshots as
        # engine.<name>.reads / engine.<name>.writes.
        self._metric_reads = None
        self._metric_writes = None
        # One engine-wide lock keeps each operation atomic under the
        # threaded worker pools; the in-memory ops are far cheaper than the
        # lock hold times real engines exhibit, so this does not distort
        # relative benchmark shapes.
        self._lock = threading.RLock()

    # -- bookkeeping -------------------------------------------------------

    def bind_metrics(self, registry: Any, prefix: Optional[str] = None) -> None:
        """Mirror per-operation counts into ``registry`` (a
        :class:`repro.runtime.metrics.MetricsRegistry`) under
        ``<prefix>.reads`` / ``<prefix>.writes``."""
        prefix = prefix or f"engine.{self.name}"
        self._metric_reads = registry.counter(f"{prefix}.reads")
        self._metric_writes = registry.counter(f"{prefix}.writes")

    def _charge_write(self) -> None:
        self.faults.check_write()
        self.stats.writes += 1
        if self._metric_writes is not None:
            self._metric_writes.increment()

    def _charge_read(self) -> None:
        self.faults.check_read()
        self.stats.reads += 1
        if self._metric_reads is not None:
            self._metric_reads.increment()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
