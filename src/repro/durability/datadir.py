"""One configurable on-disk home for everything the runtime persists.

Layout under the resolved data dir::

    <data_dir>/
        wal/         append-only WAL segments (wal-NNNNNNNN.jsonl)
        snapshots/   snapshot files (snap-NNNNNNNN.json)
        flight/      FlightRecorder anomaly dumps (flight-NNNN-*.jsonl)

Sharded runs nest one such tree per worker under
``<data_dir>/<shard_name>/`` — each shard recovers independently from
its own log, mirroring per-service independent persistence.

Resolution order: an explicit ``data_dir=`` argument, then the
``REPRO_DATA_DIR`` environment variable, then ``./repro-data``.
"""

from __future__ import annotations

import os
from typing import Optional

DATA_DIR_ENV = "REPRO_DATA_DIR"
DEFAULT_DATA_DIR = "repro-data"

WAL_SUBDIR = "wal"
SNAPSHOT_SUBDIR = "snapshots"
FLIGHT_SUBDIR = "flight"


def resolve_data_dir(explicit: Optional[str] = None) -> str:
    """Pick the runtime data dir: explicit > $REPRO_DATA_DIR > default."""
    if explicit:
        return explicit
    return os.environ.get(DATA_DIR_ENV) or DEFAULT_DATA_DIR


def wal_dir(data_dir: str) -> str:
    return os.path.join(data_dir, WAL_SUBDIR)


def snapshot_dir(data_dir: str) -> str:
    return os.path.join(data_dir, SNAPSHOT_SUBDIR)


def flight_dir(data_dir: str) -> str:
    return os.path.join(data_dir, FLIGHT_SUBDIR)


def fsync_dir(path: str) -> None:
    """Make ``path``'s entries durable: a file created or renamed in it
    survives a power cut only once its directory is fsynced too."""
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
