"""Execution/measurement runtime: the central metrics registry, per-message
tracing, the replication-health monitor (lag SLOs, flight recorder,
exposition), threaded worker pools and the discrete-event simulator used
for the scaling experiments."""

from repro.runtime.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.runtime.monitor import (
    FlightRecorder,
    HealthReport,
    LagMonitor,
    LinkHealth,
    LinkSLO,
    RecorderEvent,
    load_dump,
    parse_prometheus,
    to_json,
    to_prometheus,
)
from repro.runtime.tracing import (
    Span,
    Trace,
    Tracer,
    activate_trace,
    current_trace,
    format_trace,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "HealthReport",
    "Histogram",
    "LagMonitor",
    "LinkHealth",
    "LinkSLO",
    "MetricsRegistry",
    "RecorderEvent",
    "Span",
    "Trace",
    "Tracer",
    "activate_trace",
    "current_trace",
    "format_trace",
    "load_dump",
    "parse_prometheus",
    "to_json",
    "to_prometheus",
]
