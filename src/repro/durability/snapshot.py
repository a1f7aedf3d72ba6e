"""Snapshot files: the checkpoint half of the durability subsystem.

A snapshot is one JSON file capturing this process's durable state —
broker queues (pending + unacked + shed-deficit ledgers), version-store
counter maps, generations and engine rows — plus a
*manifest* pinning the WAL position it covers. Restore loads the latest
valid snapshot and replays only the WAL tail past the pin; segments
wholly below the pin (and older snapshot files) are reclaimed.

Files are written atomically (temp file + ``os.replace``, then a
directory fsync) so a crash mid-snapshot leaves the previous snapshot
intact, and a half-written file is skipped — never trusted — by
:meth:`SnapshotStore.load_latest`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.datadir import fsync_dir
from repro.errors import DurabilityError
from repro.runtime.monitor.recorder import FlightRecorder

#: On-disk snapshot schema version; loaders refuse *newer* snapshots
#: instead of misreading them. v2 retires the subscriber's window of
#: applied message uids (the counters say what was applied); a v1
#: snapshot still loads and that field of it is ignored.
SNAPSHOT_VERSION = 2

_PREFIX = "snap-"
_SUFFIX = ".json"


def _name(snapshot_id: int) -> str:
    return f"{_PREFIX}{snapshot_id:08d}{_SUFFIX}"


def _id_of(filename: str) -> Optional[int]:
    if not filename.startswith(_PREFIX) or not filename.endswith(_SUFFIX):
        return None
    body = filename[len(_PREFIX):-len(_SUFFIX)]
    return int(body) if body.isdigit() else None


def build_manifest(
    snapshot_id: int, pin: Tuple[int, int]
) -> Dict[str, Any]:
    """The golden manifest shape: the pinned WAL position tells restore
    where tail replay starts and compaction what it may reclaim."""
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "id": snapshot_id,
        "wal": {"segment": pin[0], "offset": pin[1]},
    }


class SnapshotStore:
    """Numbered snapshot files under one directory."""

    def __init__(self, dirpath: str, recorder: Optional[Any] = None) -> None:
        self.dir = dirpath
        self.recorder = recorder or FlightRecorder()
        os.makedirs(dirpath, exist_ok=True)

    def ids(self) -> List[int]:
        out = []
        for filename in os.listdir(self.dir):
            sid = _id_of(filename)
            if sid is not None:
                out.append(sid)
        return sorted(out)

    def path(self, snapshot_id: int) -> str:
        return os.path.join(self.dir, _name(snapshot_id))

    def write(
        self, state: Dict[str, Any], pin: Tuple[int, int]
    ) -> Tuple[int, str]:
        """Atomically write ``state`` as the next snapshot; returns
        ``(snapshot_id, path)``. ``state`` must not already contain a
        ``manifest`` key."""
        if "manifest" in state:
            raise DurabilityError("snapshot state already has a manifest")
        existing = self.ids()
        snapshot_id = (existing[-1] + 1) if existing else 1
        payload = {"manifest": build_manifest(snapshot_id, pin)}
        payload.update(state)
        path = self.path(snapshot_id)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The rename must be durable before compaction removes the
        # segments and snapshots this one covers.
        fsync_dir(self.dir)
        return snapshot_id, path

    def load_latest(self) -> Optional[Dict[str, Any]]:
        """The newest snapshot that parses and carries a supported
        version. Invalid files (a crash mid-write before the atomic
        rename cannot produce one, but disk corruption can) are skipped
        with a ``durability.snapshot_invalid`` anomaly, falling back to
        the next-older snapshot."""
        for snapshot_id in reversed(self.ids()):
            path = self.path(snapshot_id)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                manifest = payload["manifest"]
                version = manifest.get("snapshot_version", 1)
                if version > SNAPSHOT_VERSION:
                    raise DurabilityError(
                        f"snapshot version {version} is newer than "
                        f"supported {SNAPSHOT_VERSION}"
                    )
                pin = manifest["wal"]
                if not isinstance(pin.get("segment"), int) \
                        or not isinstance(pin.get("offset"), int):
                    raise ValueError("manifest missing its WAL pin")
            except DurabilityError:
                raise
            except Exception as exc:
                self.recorder.anomaly(
                    "durability.snapshot_invalid",
                    snapshot=snapshot_id,
                    error=str(exc),
                )
                continue
            return payload
        return None

    def compact(self, keep_id: int) -> List[int]:
        """Delete snapshots older than ``keep_id``; returns their ids."""
        removed = []
        for snapshot_id in self.ids():
            if snapshot_id < keep_id:
                os.remove(self.path(snapshot_id))
                removed.append(snapshot_id)
        return removed
