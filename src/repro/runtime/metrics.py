"""Measurement primitives and the central metrics registry.

Every counter the pipeline used to keep ad hoc on publisher, subscriber,
broker and worker objects lives in a :class:`MetricsRegistry` now —
hierarchically named (``publisher.<app>.published``, ``broker.routed``,
``subscriber.<app>.dep_wait``), thread-safe, and exported wholesale via
:meth:`MetricsRegistry.snapshot` for benchmarks, dashboards and the
``python -m repro metrics`` CLI. See docs/observability.md for the
naming scheme.

Histograms are bounded: exact ``count``/``sum`` plus a fixed-size,
deterministically seeded reservoir (Vitter's Algorithm R) for the
percentile view, so an always-on production histogram never grows
without limit. Slow observations above a configurable threshold attach
an *exemplar* — the id of the trace active on the recording thread — so
a bad percentile links directly to one replayable trace
(docs/observability.md, "Replication-health monitoring").
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from collections import deque
from typing import Any, Dict, List, Optional, Union

from repro.runtime.tracing import current_trace, trace_now

#: Reservoir capacity: percentiles stay exact below this many samples
#: and carry only reservoir error above it.
DEFAULT_RESERVOIR = 4096

#: Exemplars kept per histogram (newest win; one per bad percentile is
#: plenty for a postmortem link).
EXEMPLAR_CAPACITY = 8


def _seed_for(name: str) -> int:
    """Deterministic per-name reservoir seed (stable across processes,
    unlike builtin ``hash``)."""
    return zlib.crc32(name.encode("utf-8"))


class Counter:
    """A thread-safe monotonic counter.

    All pipeline counters route through here so concurrent publisher and
    subscriber-worker threads can never lose increments (the broker's
    ``dropped_messages``/``total_routed`` used to be bare ``+= 1``).
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> int:
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.value}>"


class Gauge:
    """A thread-safe point-in-time value (can go up and down).

    Flow control needs one for admission credits: a counter only grows,
    but credits drain and refill with queue depth.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        # Always a float: a snapshot tells a gauge from a counter by it.
        with self._lock:
            self._value = float(value)

    def add(self, delta: float = 1.0) -> float:
        with self._lock:
            self._value += delta
            return self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.value}>"


class Histogram:
    """Collects samples; reports exact mean/total and reservoir percentiles.

    ``count`` and ``total()`` are exact however many samples arrive; the
    per-value store is a fixed-size reservoir (Algorithm R, seeded per
    instrument, so two runs of the same workload keep the same sample
    set). Percentiles use the nearest-rank method over the reservoir —
    exact until the reservoir fills, within reservoir error after. The
    sorted view is cached and invalidated on mutation, so a benchmark
    summary pass sorts once (O(n log n)) instead of once per percentile.

    Setting :attr:`exemplar_threshold` arms exemplar capture: a recorded
    value strictly above the threshold, observed while a trace is active
    on the thread (:func:`repro.runtime.tracing.activate_trace`), stores
    ``(value, trace_id, at)`` in a small ring.
    """

    def __init__(
        self,
        reservoir_size: int = DEFAULT_RESERVOIR,
        seed: int = 0,
    ) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self._reservoir_size = reservoir_size
        self._seed = seed
        self._rng = random.Random(seed)
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()
        #: Values strictly above this capture an exemplar (None = off).
        self.exemplar_threshold: Optional[float] = None
        self._exemplars: "deque[Dict[str, Any]]" = deque(maxlen=EXEMPLAR_CAPACITY)

    # -- recording ----------------------------------------------------------

    def _record_locked(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if len(self._samples) < self._reservoir_size:
            self._samples.append(value)
            self._sorted = None
        else:
            # Algorithm R: the i-th sample replaces a reservoir slot with
            # probability reservoir_size / i.
            slot = self._rng.randrange(self._count)
            if slot < self._reservoir_size:
                self._samples[slot] = value
                self._sorted = None

    def record(self, value: float) -> None:
        threshold = self.exemplar_threshold
        exemplar: Optional[Dict[str, Any]] = None
        if threshold is not None and value > threshold:
            trace = current_trace()
            if trace is not None:
                exemplar = {
                    "value": value,
                    "trace_id": trace.trace_id,
                    "at": trace_now(),
                }
        with self._lock:
            self._record_locked(value)
            if exemplar is not None:
                self._exemplars.append(exemplar)

    def extend(self, values: List[float]) -> None:
        with self._lock:
            for value in values:
                self._record_locked(value)

    # -- reading ------------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def mean(self) -> float:
        with self._lock:
            if not self._count:
                return 0.0
            return self._sum / self._count

    def percentile(self, p: float) -> float:
        with self._lock:
            if not self._samples:
                return 0.0
            if self._sorted is None:
                self._sorted = sorted(self._samples)
            rank = max(1, math.ceil(p / 100.0 * len(self._sorted)))
            return self._sorted[rank - 1]

    def total(self) -> float:
        with self._lock:
            return self._sum

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total(),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }

    def exemplars(self) -> List[Dict[str, Any]]:
        """Captured exemplars, oldest first."""
        with self._lock:
            return [dict(e) for e in self._exemplars]

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()
            self._sorted = None
            self._count = 0
            self._sum = 0.0
            self._rng = random.Random(self._seed)
            self._exemplars.clear()


class MetricsRegistry:
    """Hierarchically named counters and histograms, one per ecosystem.

    Names are dot-separated (``layer.instance.metric``); requesting the
    same name twice returns the same instrument, so the publisher, the
    exporters and the CLI all observe one value.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Gauge] = {}

    def _check_kind(self, name: str, kind: str) -> None:
        """A name belongs to exactly one instrument kind."""
        for other_kind, table in (
            ("counter", self._counters),
            ("histogram", self._histograms),
            ("gauge", self._gauges),
        ):
            if other_kind != kind and name in table:
                raise ValueError(f"{name!r} is already a {other_kind}")

    def counter(self, name: str) -> Counter:
        with self._lock:
            self._check_kind(name, "counter")
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            return counter

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            self._check_kind(name, "histogram")
            histogram = self._histograms.get(name)
            if histogram is None:
                # Per-name seed: reservoir downsampling is deterministic
                # run-to-run without correlating across instruments.
                histogram = self._histograms[name] = Histogram(seed=_seed_for(name))
            return histogram

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            self._check_kind(name, "gauge")
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
            return gauge

    def increment(self, name: str, amount: int = 1) -> None:
        self.counter(name).increment(amount)

    def value(self, name: str) -> int:
        """Current value of a counter (0 if it was never touched)."""
        with self._lock:
            counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self, prefix: str = "") -> Dict[str, Union[int, float, Dict[str, float]]]:
        """Every instrument under ``prefix``, sorted by name. Counters
        export their ``int`` value, gauges their ``float`` value,
        histograms their summary dict — the exposition layer reads the
        instrument kind from that type."""
        with self._lock:
            counters = {n: c for n, c in self._counters.items() if n.startswith(prefix)}
            histograms = {
                n: h for n, h in self._histograms.items() if n.startswith(prefix)
            }
            gauges = {n: g for n, g in self._gauges.items() if n.startswith(prefix)}
        out: Dict[str, Union[int, float, Dict[str, float]]] = {}
        for name in sorted(set(counters) | set(histograms) | set(gauges)):
            if name in counters:
                out[name] = counters[name].value
            elif name in gauges:
                out[name] = gauges[name].value
            else:
                out[name] = histograms[name].summary()
        return out

    def exemplars(self, prefix: str = "") -> Dict[str, List[Dict[str, Any]]]:
        """Histogram name -> captured exemplars (only non-empty entries)."""
        with self._lock:
            histograms = {
                n: h for n, h in self._histograms.items() if n.startswith(prefix)
            }
        out: Dict[str, List[Dict[str, Any]]] = {}
        for name in sorted(histograms):
            exemplars = histograms[name].exemplars()
            if exemplars:
                out[name] = exemplars
        return out

    def reset(self) -> None:
        with self._lock:
            instruments = (
                list(self._counters.values())
                + list(self._histograms.values())
                + list(self._gauges.values())
            )
        for instrument in instruments:
            instrument.reset()
