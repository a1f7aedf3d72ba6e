"""The segmented write-ahead log.

Append-only JSON-lines segments: every line is one envelope
``{"crc":<crc32>,"rec":{...},"v":WAL_WIRE_VERSION}`` whose CRC is
computed over the canonical JSON of ``rec`` alone — a flipped bit in a
record body, not just a torn line, is detected on replay. This module
is the only one that knows the format. A record reaches
:func:`encode_record` as a dict — the generic path: the rare control
records, and the reference the rest is tested against — or, for the
five record types that carry a message or ride in every delivery
(``out``, ``pub``, ``coal``, ``apply``, ``ack``), as text one of the
literal layouts below already made of it: the keys as constant text in
canonical order around the message's cached body, so nothing on the hot
path builds a JSON encoder. :data:`LAYOUTS` picks each record type's
form from the fields of the transition that writes it. Either way the
line is byte for byte what ``canonical_json`` of the envelope yields.
Segments rotate at a fixed record count so snapshot compaction can
reclaim whole files below the snapshot's pin.

There is one append path: a line joins the buffer, and one place
(``_flush_buffer_locked``) writes the *whole* buffer in one ``write``,
so the file is always a prefix of append order. The three fsync
policies differ only in when that happens and whether it fsyncs:

- ``off``: written at once, no fsync — unless the appender says
  ``hold`` (the record belongs to a step of the pipeline,
  ``DurabilityManager.step``), in which case it waits for the
  :meth:`~SegmentedWAL.flush` that ends the step. The step's caller is
  answered only after that, so a process crash loses no publish whose
  ``save()`` returned and no settled ack (the kernel holds the bytes);
  a host crash may.
- ``always``: written and fsynced per record — nothing is ever lost,
  at per-record fsync cost.
- ``interval`` (group commit): written and fsynced every ``group_max``
  records, or at an explicit :meth:`~SegmentedWAL.sync`. A crash
  between sync points genuinely loses the buffered tail — exactly the
  window the ``before-fsync`` crash scenario exercises.

Under ``always`` and ``interval`` a new segment's directory entry is
fsynced when the segment is created; ``off`` never syncs the directory.

A failed write is fail-stop: the first ``OSError`` from a segment
open/write/flush/fsync takes the position back over the lines that did
not reach the file, emits a ``durability.io_error`` anomaly and raises
:class:`~repro.errors.WALWriteFailed`; every later append raises it
again without touching the file.

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
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.broker.message import canonical_json
from repro.durability.datadir import fsync_dir
from repro.errors import DurabilityError, WALCorrupt, WALWriteFailed
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.monitor.recorder import FlightRecorder

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
    #: What an unknown point raises, and what the crash is called.
    ERROR, NAME = DurabilityError, "crash"

    def __init__(self, point: str, after_records: int = 1, hard: bool = False):
        if point not in self.POINTS:
            raise self.ERROR(f"unknown {self.NAME} point {point!r}")
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
        raise SimulatedCrash(f"injected {self.NAME} at {point}")


def _crc(canonical: str) -> int:
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def record_crc(rec: Dict[str, Any]) -> int:
    """CRC over the canonical JSON of ``rec`` (sorted keys, no
    whitespace): writer and replayer derive the same bytes for the same
    record."""
    return _crc(canonical_json(rec))


def encode_record(
    rec: Union[Dict[str, Any], str], body: Optional[str] = None
) -> str:
    """One WAL line (without the newline): exactly what
    ``canonical_json({"v": ..., "crc": record_crc(rec), "rec": rec})``
    yields, in one pass.

    ``rec`` is the record as a dict, or — from one of the layouts below
    — its canonical JSON already laid out, which only gets its CRC and
    envelope here. ``body`` (with a dict) is the canonical JSON of the
    record's ``m`` field, already encoded by the caller (``rec`` then
    must not carry ``m`` itself): only the small header around it is
    dumped here, in two halves so the body lands at ``m``'s sorted
    position. The dict forms are the reference the layouts are tested
    against, and what the rare control records take.
    """
    if isinstance(rec, str):
        inner = rec
    elif body is None:
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


# -- literal layouts of the hot record types ----------------------------------
#
# Ten records per published message (one ``out``; a ``pub``, an ``apply``
# and an ``ack`` per subscriber) made the generic header dump the largest
# part of an append. Each layout below writes its record's keys as
# constant text in canonical (sorted) order around the message's cached
# body; a queue, service or app name is quoted once and remembered, a
# uid is quoted per record. What they return is what ``canonical_json``
# of the equivalent dict returns — byte for byte, the all-record-types
# property in tests/durability/test_step_write.py holds them to it —
# and goes to :func:`encode_record` in place of the dict.

_name = lru_cache(maxsize=1024)(_quote)


def out_record(
    app: str, body: str, counters: Dict[str, List[int]],
    cursor: Optional[int] = None,
) -> str:
    """``{"t": "out", "app", "m", "vs"}``, plus ``cur`` for a CDC publish."""
    cur = "" if cursor is None else f'"cur":{canonical_json(cursor)},'
    return (
        f'{{"app":{_name(app)},{cur}"m":{body},"t":"out",'
        f'"vs":{canonical_json(counters)}}}'
    )


def pub_record(queue_name: str, body: str) -> str:
    """``{"t": "pub", "q", "m"}``."""
    return f'{{"m":{body},"q":{_name(queue_name)},"t":"pub"}}'


def coal_record(
    queue_name: str, uid: str, absorbed: List[str], body: str
) -> str:
    """``{"t": "coal", "q", "uid", "absorbed", "m"}``: ``absorbed`` lists
    the uid the merge absorbed, ``m`` is the survivor's post-merge body."""
    return (
        f'{{"absorbed":{canonical_json(absorbed)},"m":{body},'
        f'"q":{_name(queue_name)},"t":"coal","uid":{_quote(uid)}}}'
    )


def apply_record(service_name: str, uid: str, body: str) -> str:
    """``{"t": "apply", "svc", "uid", "m"}``."""
    return (
        f'{{"m":{body},"svc":{_name(service_name)},"t":"apply",'
        f'"uid":{_quote(uid)}}}'
    )


def ack_record(queue_name: str, uid: str) -> str:
    """``{"t": "ack", "q", "uid"}``."""
    return f'{{"q":{_name(queue_name)},"t":"ack","uid":{_quote(uid)}}}'


#: Record type -> its layout over the fields of the transition that
#: writes it (``repro.runtime.interleave.TRANSITIONS``; ``q`` a queue
#: name, ``svc`` a service): the text or the dict the log appends.
#: ``DurabilityManager.log_transition`` hands ``out`` the post-bump
#: counters too, and ``shed`` the ledger in place of the flow state.
LAYOUTS = {
    "out": lambda message, counters: out_record(message.app, message.body(), counters, message.cdc),
    "pub": lambda q, message: pub_record(q, message.body()),
    "coal": lambda q, message, into: coal_record(q, into.uid, [message.uid], into.body()),
    "shed": lambda q, message, ledger: {"t": "shed", "q": q, "app": message.app, "ledger": ledger},
    "defer": lambda q, message: {"t": "defer", "q": q, "uid": message.uid},
    "ack": lambda q, message: ack_record(q, message.uid),
    "decom": lambda q: {"t": "decom", "q": q},
    "recom": lambda q: {"t": "recom", "q": q},
    "apply": lambda svc, message: apply_record(svc.name, message.uid, message.body()),
    "gen": lambda svc, app, g: {"t": "gen", "svc": svc.name, "app": app, "g": g},
    "pubgen": lambda app, g: {"t": "pubgen", "app": app, "g": g},
    "obx": lambda svc, entry: {"t": "obx", "svc": svc.name, "e": dict(entry)},
    "cdc": lambda svc, cursor: {"t": "cdc", "svc": svc.name, "cur": cursor},
}


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
        self.recorder = recorder or FlightRecorder()
        self.injector: Optional[CrashInjector] = None
        self._lock = threading.Lock()
        self._fh = None
        #: Lines appended but not yet written, in append order: the
        #: group-commit tail (``interval``) or what ``append(hold=True)``
        #: left for :meth:`flush` (``off``). Any write takes all of it.
        self._buffer: List[str] = []
        #: Set by the first failed segment write; the log is fail-stop
        #: from then on (:meth:`_fail_locked`).
        self._failed: Optional[WALWriteFailed] = None
        os.makedirs(dirpath, exist_ok=True)
        if metrics is None:
            metrics = MetricsRegistry()
        #: Incremented under the lock; the snapshot cadence counts it.
        self.appends = metrics.counter("durability.wal.appends")
        self._flushes = metrics.counter("durability.wal.flushes")
        self._fsyncs = metrics.counter("durability.wal.fsyncs")
        self._segments_gauge = metrics.gauge("durability.wal.segments")
        self._bytes_gauge = metrics.gauge("durability.wal.bytes")
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

    def _handle(self):
        if self._fh is None:
            created = not os.path.exists(self.segment_path(self._segment))
            self._fh = open(
                self.segment_path(self._segment), "a", encoding="utf-8"
            )
            if created:
                if self.fsync != FSYNC_OFF:
                    fsync_dir(self.dir)  # the new segment's entry
                self._total_segments += 1
                self._segments_gauge.set(self._total_segments)
        return self._fh

    def _rotate_locked(self) -> None:
        self._flush_buffer_locked()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._segment += 1
        self._segment_count = 0

    # -- appending -----------------------------------------------------------

    def append(
        self, rec: Union[Dict[str, Any], str], hold: bool = False
    ) -> Tuple[int, int]:
        """Append one record (a dict, or a layout's text: see
        :func:`encode_record`); returns its position. The line joins
        the buffer, which is written at once — except under
        ``interval`` (when the group is full) and, under ``off``, when
        the caller says ``hold``: the record is one of a step's, and the
        caller will :meth:`flush` when the step ends."""
        line = encode_record(rec)
        with self._lock:
            if self._failed is not None:
                raise self._failed
            if self._segment_count >= self.segment_records:
                self._rotate_locked()
            position = (self._segment, self._segment_count)
            self._segment_count += 1
            self.appends.increment()
            self._buffer.append(line)
            if len(self._buffer) >= self.group_max:
                if self.fsync == FSYNC_INTERVAL and self.injector is not None:
                    self.injector.fire("before-fsync")
                self._flush_buffer_locked()
            elif self.fsync == FSYNC_ALWAYS or (
                self.fsync == FSYNC_OFF and not hold
            ):
                self._flush_buffer_locked()
        if self.injector is not None:
            self.injector.fire("after-append")
        return position

    def flush(self) -> bool:
        """Under ``off``, write what held appends left in the buffer —
        every thread's lines, so the file stays a prefix of append
        order. True when this call wrote something."""
        if self.fsync != FSYNC_OFF or not self._buffer:
            return False
        with self._lock:
            return self._flush_buffer_locked()

    def _flush_buffer_locked(self) -> bool:
        """The one place that writes: the whole buffer in one ``write``,
        fsynced unless the policy is ``off``."""
        if not self._buffer:
            return False
        data = "\n".join(self._buffer) + "\n"
        try:
            fh = self._handle()
            fh.write(data)
            fh.flush()
            if self.fsync != FSYNC_OFF:
                self._fsync_locked(fh)
        except OSError as exc:
            self._fail_locked(exc)
        self._buffer.clear()
        # WAL lines are pure ASCII (everything else is escaped), so
        # characters written equal bytes written.
        self._total_bytes += len(data)
        self._bytes_gauge.set(self._total_bytes)
        self._flushes.increment()
        return True

    def _fsync_locked(self, fh) -> None:
        os.fsync(fh.fileno())
        self._fsyncs.increment()

    def _fail_locked(self, exc: OSError) -> None:
        """Fail-stop on the first ``OSError`` of a segment open, write,
        flush or fsync (a full disk): take the position back over the
        lines that did not reach the file, say so, and refuse every
        later append with the same error — appending behind a hole
        would make the log lie. The process restarts from the surviving
        prefix; effects it never logged are redelivered, and the
        subscriber counters recognise what was applied.
        (Closing the handle may still push out part of the failed
        write: a torn tail replay forgives, or whole lines that only
        lengthen the prefix.)"""
        lost = len(self._buffer)
        self._segment_count -= lost
        self._buffer.clear()
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass
        self._failed = WALWriteFailed(
            f"WAL segment {self._segment} write failed ({exc}); "
            f"{lost} record(s) not logged, the log is closed"
        )
        self.recorder.anomaly(
            "durability.io_error",
            segment=self._segment,
            errno=exc.errno,
            error=str(exc),
            lost=lost,
        )
        raise self._failed from exc

    def sync(self) -> None:
        """Force the buffer (and the OS cache) to disk — the write
        barrier snapshots take before pinning a position."""
        with self._lock:
            if self._failed is not None:
                raise self._failed
            if self.injector is not None and self._buffer:
                self.injector.fire("before-fsync")
            self._flush_buffer_locked()
            if self._fh is not None and self.fsync == FSYNC_OFF:
                # The other two policies fsync every write they make.
                try:
                    self._fsync_locked(self._fh)
                except OSError as exc:
                    self._fail_locked(exc)
        self._update_gauges()

    def position(self) -> Tuple[int, int]:
        """The position one past the last appended record: replaying
        from here sees only records appended afterwards."""
        with self._lock:
            return (self._segment, self._segment_count)

    def close(self) -> None:
        with self._lock:
            self._flush_buffer_locked()
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
