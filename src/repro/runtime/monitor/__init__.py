"""Live replication-health monitoring (docs/observability.md).

Three cooperating pieces, all owned by the :class:`~repro.core.Ecosystem`:

- :class:`LagMonitor` (``eco.monitor``) — per publisher→subscriber link
  lag/dwell windows, SLO evaluation, ``eco.monitor.health()``;
- :class:`FlightRecorder` (``eco.recorder``) — bounded rings of
  completed traces and structured events; anomalies dump JSONL;
- the exposition layer — :func:`to_prometheus` / :func:`to_json` over
  snapshots, and the ``python -m repro watch`` console;
- :class:`ClusterPlane` (``eco.cluster``, installed by the shard
  runtime) — the federation layer: cross-shard trace assembly, merged
  per-shard snapshots (``ClusterPlane.snapshot``), correlated incident
  dumps.
"""

from repro.runtime.monitor.cluster import (
    ClusterPlane,
    assemble_trace,
    cluster_quiesce,
    format_assembled_trace,
    shard_service,
)
from repro.runtime.monitor.export import (
    escape_label_value,
    format_labels,
    mangle,
    parse_prometheus,
    to_json,
    to_prometheus,
    unescape_label_value,
)
from repro.runtime.monitor.lag import (
    HealthReport,
    LagMonitor,
    LinkHealth,
    LinkSLO,
    SlidingWindow,
)
from repro.runtime.monitor.recorder import (
    FlightRecorder,
    RecorderEvent,
    load_dump,
)

__all__ = [
    "ClusterPlane",
    "FlightRecorder",
    "HealthReport",
    "LagMonitor",
    "LinkHealth",
    "LinkSLO",
    "RecorderEvent",
    "SlidingWindow",
    "assemble_trace",
    "cluster_quiesce",
    "escape_label_value",
    "format_assembled_trace",
    "format_labels",
    "load_dump",
    "mangle",
    "parse_prometheus",
    "shard_service",
    "to_json",
    "to_prometheus",
    "unescape_label_value",
]
