"""Durability subsystem: segmented WAL, snapshots, kill-and-restart
recovery (docs/durability.md).

Off by default: until ``enable_durability`` the ecosystem's log is
:data:`DURABILITY_OFF`, a null sink every hook logs into for nothing.
Enabled, every durable state transition
(publish, coalesce, shed, ack, apply, generation bump) is logged to an
append-only segmented WAL, periodically checkpointed into a snapshot
that pins the WAL position it covers, and :meth:`DurabilityManager.
restore` rebuilds the process after a ``kill -9`` by replaying the tail,
skipping what the subscriber counters say was applied.
"""

from repro.durability.datadir import (
    DATA_DIR_ENV,
    DEFAULT_DATA_DIR,
    flight_dir,
    resolve_data_dir,
    snapshot_dir,
    wal_dir,
)
from repro.durability.manager import (
    DURABILITY_OFF,
    DurabilityManager,
    DurabilityOff,
    RestoreReport,
)
from repro.durability.snapshot import SNAPSHOT_VERSION, SnapshotStore, build_manifest
from repro.durability.wal import (
    FSYNC_ALWAYS,
    FSYNC_INTERVAL,
    FSYNC_OFF,
    FSYNC_POLICIES,
    WAL_WIRE_VERSION,
    CrashInjector,
    SegmentedWAL,
    SimulatedCrash,
    decode_record,
    encode_record,
)

__all__ = [
    "DATA_DIR_ENV",
    "DEFAULT_DATA_DIR",
    "CrashInjector",
    "DURABILITY_OFF",
    "DurabilityManager",
    "DurabilityOff",
    "FSYNC_ALWAYS",
    "FSYNC_INTERVAL",
    "FSYNC_OFF",
    "FSYNC_POLICIES",
    "RestoreReport",
    "SNAPSHOT_VERSION",
    "SegmentedWAL",
    "SimulatedCrash",
    "SnapshotStore",
    "WAL_WIRE_VERSION",
    "build_manifest",
    "decode_record",
    "encode_record",
    "flight_dir",
    "resolve_data_dir",
    "snapshot_dir",
    "wal_dir",
]
