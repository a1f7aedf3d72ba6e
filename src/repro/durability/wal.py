"""The segmented write-ahead log.

Append-only JSON-lines segments: every line is one envelope
``{"crc":<crc32>,"rec":{...},"v":WAL_WIRE_VERSION}`` whose CRC is
computed over the canonical JSON of ``rec`` alone — a flipped bit in a
record body, not just a torn line, is detected on replay. A record that
carries a message takes the message's already-encoded canonical body
and splices it in as its ``m`` field, so the writer CRCs the bytes it
produced instead of encoding the message again. Segments rotate at a
fixed record count so snapshot compaction can reclaim whole files below
the snapshot's pin.

Three fsync policies model the real durability/throughput trade:

- ``off``: records reach the OS file immediately, no fsync — a process
  crash loses nothing (the kernel holds the bytes), a host crash may.
- ``always``: write + flush + fsync per record — nothing is ever lost,
  at per-record fsync cost.
- ``interval`` (group commit): records accumulate in an in-memory
  buffer and hit the file in one write + fsync per sync point (every
  ``group_max`` records, or an explicit :meth:`sync`). A crash between
  sync points genuinely loses the buffered tail — exactly the window
  the ``before-fsync`` crash scenario exercises.

Replay verifies version and CRC per record. A malformed *final* record
of the *final* segment is a torn tail — the partial line is truncated
off the file and a ``durability.torn_tail`` anomaly is emitted — while
corruption anywhere else (or a record from a newer ``WAL_WIRE_VERSION``)
raises :class:`~repro.errors.WALCorrupt`: the log cannot be trusted and
the caller must fall back to bootstrap/repair.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.broker.message import canonical_json
from repro.errors import DurabilityError, WALCorrupt

#: On-disk WAL schema version. Bump when a record changes meaning;
#: replay refuses records from a *newer* schema instead of misreading.
WAL_WIRE_VERSION = 1

FSYNC_OFF = "off"
FSYNC_INTERVAL = "interval"
FSYNC_ALWAYS = "always"
FSYNC_POLICIES = (FSYNC_OFF, FSYNC_INTERVAL, FSYNC_ALWAYS)

#: Records per segment before rotation (small enough that compaction
#: has segments to reclaim in tests and demos).
DEFAULT_SEGMENT_RECORDS = 512
#: Group-commit buffer bound for the ``interval`` policy.
DEFAULT_GROUP_MAX = 64

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".jsonl"


class SimulatedCrash(DurabilityError):
    """Raised by a :class:`CrashInjector` at its armed crash point."""


class CrashInjector:
    """Deterministic crash-point injection for recovery tests.

    ``point`` is one of ``after-append`` / ``before-fsync`` /
    ``before-ack``; the crash fires on the ``after_records``-th time
    that point is reached. ``hard=True`` kills the whole process with
    SIGKILL (a genuine, uncatchable death for cross-process tests);
    the default raises :class:`SimulatedCrash` for in-process restores.
    """

    POINTS = ("after-append", "before-fsync", "before-ack")

    def __init__(self, point: str, after_records: int = 1, hard: bool = False):
        if point not in self.POINTS:
            raise DurabilityError(f"unknown crash point {point!r}")
        self.point = point
        self.remaining = after_records
        self.hard = hard
        self.fired = False

    def fire(self, point: str) -> None:
        if self.fired or point != self.point:
            return
        self.remaining -= 1
        if self.remaining > 0:
            return
        self.fired = True
        if self.hard:  # pragma: no cover - exercised via subprocesses
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        raise SimulatedCrash(f"injected crash at {point}")


def _crc(canonical: str) -> int:
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def record_crc(rec: Dict[str, Any]) -> int:
    """CRC over the canonical JSON of ``rec`` (sorted keys, no
    whitespace): writer and replayer derive the same bytes for the same
    record."""
    return _crc(canonical_json(rec))


def encode_record(rec: Dict[str, Any], body: Optional[str] = None) -> str:
    """One WAL line (without the newline): exactly what
    ``canonical_json({"v": ..., "crc": record_crc(rec), "rec": rec})``
    yields, in one pass.

    ``body`` is the canonical JSON of the record's ``m`` field, already
    encoded by the caller (``rec`` then must not carry ``m`` itself):
    only the small header around it is dumped here, in two halves so the
    body lands at ``m``'s sorted position.
    """
    if body is None:
        inner = canonical_json(rec)
    else:
        if "m" in rec:
            raise DurabilityError("record carries both 'm' and an encoded body")
        head = {k: v for k, v in rec.items() if k < "m"}
        tail = {k: v for k, v in rec.items() if k > "m"}
        inner = "".join((
            canonical_json(head)[:-1] + "," if head else "{",
            '"m":', body,
            "," + canonical_json(tail)[1:] if tail else "}",
        ))
    return f'{{"crc":{_crc(inner)},"rec":{inner},"v":{WAL_WIRE_VERSION}}}'


def decode_record(line: str) -> Dict[str, Any]:
    """Parse and verify one WAL line; raises :class:`WALCorrupt` on a
    malformed line, a CRC mismatch, or a newer wire version."""
    try:
        envelope = json.loads(line)
    except ValueError as exc:
        raise WALCorrupt(f"unparseable WAL line: {exc}") from None
    if not isinstance(envelope, dict) or "rec" not in envelope:
        raise WALCorrupt("WAL line is not a record envelope")
    version = envelope.get("v", 1)
    if version > WAL_WIRE_VERSION:
        raise WALCorrupt(
            f"WAL wire version {version} is newer than supported "
            f"{WAL_WIRE_VERSION}; upgrade before replaying this log"
        )
    rec = envelope["rec"]
    if envelope.get("crc") != record_crc(rec):
        raise WALCorrupt("WAL record failed its CRC check")
    return rec


def _segment_name(segment_id: int) -> str:
    return f"{_SEGMENT_PREFIX}{segment_id:08d}{_SEGMENT_SUFFIX}"


def _segment_id(filename: str) -> Optional[int]:
    if not filename.startswith(_SEGMENT_PREFIX) or \
            not filename.endswith(_SEGMENT_SUFFIX):
        return None
    body = filename[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    return int(body) if body.isdigit() else None


class SegmentedWAL:
    """Append-only segmented log under one directory.

    A *position* is ``(segment_id, record_offset)``: replay from a
    position starts at record ``record_offset`` of that segment (0 =
    its first record) and runs to the end of the log. Thread-safe:
    appends serialize on an internal lock (callers already hold their
    own queue locks; this lock only orders writers against each other).
    """

    def __init__(
        self,
        dirpath: str,
        fsync: str = FSYNC_OFF,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        group_max: int = DEFAULT_GROUP_MAX,
        metrics: Optional[Any] = None,
        recorder: Optional[Any] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise DurabilityError(
                f"unknown fsync policy {fsync!r}; options: {FSYNC_POLICIES}"
            )
        self.dir = dirpath
        self.fsync = fsync
        self.segment_records = max(1, segment_records)
        self.group_max = max(1, group_max)
        self.recorder = recorder
        self.injector: Optional[CrashInjector] = None
        self._lock = threading.Lock()
        self._fh = None
        self._buffer: List[str] = []  # group-commit tail (interval policy)
        os.makedirs(dirpath, exist_ok=True)
        self._appends = metrics.counter("durability.wal.appends") \
            if metrics is not None else None
        self._fsyncs = metrics.counter("durability.wal.fsyncs") \
            if metrics is not None else None
        self._segments_gauge = metrics.gauge("durability.wal.segments") \
            if metrics is not None else None
        self._bytes_gauge = metrics.gauge("durability.wal.bytes") \
            if metrics is not None else None
        existing = self.segment_ids()
        if existing:
            self._segment = existing[-1]
            self._segment_count = self._count_records(existing[-1])
        else:
            self._segment = 1
            self._segment_count = 0
        self._total_bytes = 0
        self._total_segments = 0
        self._update_gauges()

    # -- segment bookkeeping -------------------------------------------------

    def segment_ids(self) -> List[int]:
        ids = []
        for name in os.listdir(self.dir):
            sid = _segment_id(name)
            if sid is not None:
                ids.append(sid)
        return sorted(ids)

    def segment_path(self, segment_id: int) -> str:
        return os.path.join(self.dir, _segment_name(segment_id))

    def _count_records(self, segment_id: int) -> int:
        path = self.segment_path(segment_id)
        if not os.path.exists(path):
            return 0
        with open(path, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def _update_gauges(self) -> None:
        """Full recompute from the filesystem (init, sync, torn-tail
        truncation, compaction). Appends and rotation keep both gauges
        fresh incrementally: a listdir plus a stat per segment on every
        rotation would make a long log between snapshots quadratic."""
        if self._segments_gauge is None:
            return
        ids = self.segment_ids()
        self._total_segments = len(ids)
        self._segments_gauge.set(len(ids))
        total = sum(
            os.path.getsize(self.segment_path(sid))
            for sid in ids
            if os.path.exists(self.segment_path(sid))
        )
        self._total_bytes = total
        self._bytes_gauge.set(total)

    def _track_written(self, byte_count: int) -> None:
        """Callers pass ``len(text)``: WAL lines are pure ASCII
        (``canonical_json`` escapes everything else), so characters
        written equal bytes written."""
        if self._bytes_gauge is not None:
            self._total_bytes += byte_count
            self._bytes_gauge.set(self._total_bytes)

    def _handle(self):
        if self._fh is None:
            created = not os.path.exists(self.segment_path(self._segment))
            self._fh = open(
                self.segment_path(self._segment), "a", encoding="utf-8"
            )
            if created and self._segments_gauge is not None:
                self._total_segments += 1
                self._segments_gauge.set(self._total_segments)
        return self._fh

    def _rotate_locked(self) -> None:
        self._flush_buffer_locked(do_fsync=self.fsync != FSYNC_OFF)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._segment += 1
        self._segment_count = 0

    # -- appending -----------------------------------------------------------

    def append(
        self, rec: Dict[str, Any], body: Optional[str] = None
    ) -> Tuple[int, int]:
        """Durably append one record; returns its position. ``body`` is
        the record's pre-encoded ``m`` field (see :func:`encode_record`)."""
        line = encode_record(rec, body)
        with self._lock:
            if self._segment_count >= self.segment_records:
                self._rotate_locked()
            position = (self._segment, self._segment_count)
            self._segment_count += 1
            if self._appends is not None:
                self._appends.increment()
            if self.fsync == FSYNC_INTERVAL:
                self._buffer.append(line)
                if len(self._buffer) >= self.group_max:
                    if self.injector is not None:
                        self.injector.fire("before-fsync")
                    self._flush_buffer_locked(do_fsync=True)
            else:
                fh = self._handle()
                fh.write(line + "\n")
                fh.flush()
                self._track_written(len(line) + 1)
                if self.fsync == FSYNC_ALWAYS:
                    os.fsync(fh.fileno())
                    if self._fsyncs is not None:
                        self._fsyncs.increment()
        if self.injector is not None:
            self.injector.fire("after-append")
        return position

    def _flush_buffer_locked(self, do_fsync: bool) -> None:
        if not self._buffer:
            return
        fh = self._handle()
        data = "\n".join(self._buffer) + "\n"
        fh.write(data)
        fh.flush()
        self._track_written(len(data))
        if do_fsync:
            os.fsync(fh.fileno())
            if self._fsyncs is not None:
                self._fsyncs.increment()
        self._buffer.clear()

    def sync(self) -> None:
        """Force the group-commit buffer (and the OS cache) to disk —
        the write barrier snapshots take before pinning a position."""
        with self._lock:
            if self.injector is not None and self._buffer:
                self.injector.fire("before-fsync")
            self._flush_buffer_locked(do_fsync=True)
            if self._fh is not None and self.fsync != FSYNC_ALWAYS:
                os.fsync(self._fh.fileno())
                if self._fsyncs is not None:
                    self._fsyncs.increment()
        self._update_gauges()

    def position(self) -> Tuple[int, int]:
        """The position one past the last appended record: replaying
        from here sees only records appended afterwards."""
        with self._lock:
            return (self._segment, self._segment_count)

    def close(self) -> None:
        with self._lock:
            self._flush_buffer_locked(do_fsync=self.fsync != FSYNC_OFF)
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def drop_buffered_tail(self) -> int:
        """Simulate the group-commit loss window: discard records that
        were appended but never synced (crash tests only)."""
        with self._lock:
            lost = len(self._buffer)
            self._buffer.clear()
            self._segment_count -= lost
            return lost

    # -- replay --------------------------------------------------------------

    def replay(
        self, start: Optional[Tuple[int, int]] = None
    ) -> Iterator[Tuple[Tuple[int, int], Dict[str, Any]]]:
        """Yield ``(position, record)`` from ``start`` (default: the
        oldest segment) to the end of the log, verifying every record.

        A malformed final record of the final segment is treated as a
        torn tail: the file is truncated back to the last good record,
        a ``durability.torn_tail`` anomaly is emitted, and iteration
        ends. Malformed records anywhere else raise
        :class:`~repro.errors.WALCorrupt`.
        """
        self.close()
        ids = self.segment_ids()
        if start is not None:
            ids = [sid for sid in ids if sid >= start[0]]
            if ids and start[0] not in ids and any(s < start[0] for s in self.segment_ids()):
                raise WALCorrupt(
                    f"replay start segment {start[0]} is missing"
                )
        for index, sid in enumerate(ids):
            last_segment = index == len(ids) - 1
            skip = start[1] if (start is not None and sid == start[0]) else 0
            path = self.segment_path(sid)
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
            good_bytes = 0
            for line_no, raw in enumerate(lines):
                stripped = raw.strip()
                if not stripped:
                    good_bytes += len(raw.encode("utf-8"))
                    continue
                try:
                    rec = decode_record(stripped)
                except WALCorrupt:
                    tail = line_no == len(lines) - 1
                    if last_segment and tail:
                        self._truncate_torn(path, sid, good_bytes, line_no)
                        return
                    raise
                good_bytes += len(raw.encode("utf-8"))
                if line_no >= skip:
                    yield (sid, line_no), rec

    def _truncate_torn(
        self, path: str, segment_id: int, good_bytes: int, line_no: int
    ) -> None:
        with open(path, "r+b") as fh:
            fh.truncate(good_bytes)
        with self._lock:
            if segment_id == self._segment:
                self._segment_count = line_no
        if self.recorder is not None:
            self.recorder.anomaly(
                "durability.torn_tail",
                segment=segment_id,
                record=line_no,
                truncated_at=good_bytes,
            )
        self._update_gauges()

    # -- compaction ----------------------------------------------------------

    def compact_below(self, segment_id: int) -> List[int]:
        """Delete segments wholly covered by a snapshot pinned inside
        ``segment_id`` (everything strictly below it); returns the
        reclaimed segment ids."""
        reclaimed = []
        for sid in self.segment_ids():
            if sid < segment_id:
                os.remove(self.segment_path(sid))
                reclaimed.append(sid)
        self._update_gauges()
        return reclaimed
