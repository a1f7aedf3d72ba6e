"""The timed phases of one in-process workload run, and the estimators
that turn their samples into metrics.

Load is cooperative and single-threaded: the driver publishes, then
settles (polls the outbox, drains every subscriber). On a 2-core host a
worker thread's GIL switch interval, not the program, would set the lag
tail. Only ``shard_forward`` (``shard.py``) runs two busy processes.

Every timing metric is the **median over a phase's equal-count blocks**
of the block's own value, so one bad second ruins one block and not the
run, while a stall the program causes in most blocks still moves the
number. Block values are in seconds *at reference speed*: the host's
speed is sampled between the timed stretches (``speed.py`` has the why
and the evidence) and a block's times are divided by its speed factor.
"""

from __future__ import annotations

import bisect
import collections
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import speed
from benchmarks.e2e.rig import Rig, Stamp
from benchmarks.e2e.workloads import DESTROY, READ_ROW, Op

#: Backlog at the end of the paced schedule above which the rate is
#: unsustainable and the phase's lag numbers are not numbers (or the
#: workload's saturate window, where that is larger).
BACKLOG_LIMIT = 64
#: The backlog is counted this long after the schedule's last due time:
#: an overload's backlog takes far longer to drain, the writes one VM
#: stop in the last few milliseconds holds up do not.
BACKLOG_GRACE_S = 0.1
#: Entries between speed samples where the window is a single op.
READ_MIX_CHUNK = 2048
#: Seconds between speed samples in the paced phase: one 0.3 ms sample
#: per 30 ms holds the driver up for 1 % of the schedule. (Sampling more
#: often — three samples per saturate window, or one in every idle gap
#: of the paced schedule — was tried: the kernel's own cache footprint
#: then costs the program 7 % of its throughput and 20-30 % of its lag.)
SAMPLE_EVERY_S = 0.03
#: Speed samples the paced schedule's stretch is the median of.
STRETCH_SAMPLES = 15

#: One attempted write: ``(row id, kind, due time, block index)``.
WriteRecord = Tuple[Any, int, float, int]
#: One saturate block: ``(ops, wall seconds, CPU seconds of every
#: process)``, both at reference speed.
Block = Tuple[int, float, float]


@dataclass
class SaturateSamples:
    blocks: List[Block] = field(default_factory=list)
    #: Per block: the speed factor it ran at.
    factors: List[float] = field(default_factory=list)
    writes: List[WriteRecord] = field(default_factory=list)
    attempted: int = 0
    errors: int = 0
    stale_reads: int = 0


@dataclass
class PacedSamples:
    writes: List[WriteRecord] = field(default_factory=list)
    #: Per block: what each write call cost the caller, seconds.
    publish: List[List[float]] = field(default_factory=list)
    #: Per block: cached-read latencies, seconds (``read_mix`` only).
    reads: List[List[float]] = field(default_factory=list)
    #: Per block: the speed factor it ran at.
    factors: List[float] = field(default_factory=list)
    #: How late each arrival was published, seconds.
    late: List[float] = field(default_factory=list)
    schedule_end: float = 0.0
    depth_max: int = 0
    dwell_p50: float = 0.0
    attempted: int = 0
    errors: int = 0
    stale_reads: int = 0


def wait_until(due: float, clock: Callable[[], float]) -> None:
    """Spin until ``due``. ``time.sleep`` on this kind of host returns up
    to 13 ms late (p99 measured while sizing the load) — longer than
    twenty ops take — so a sleeping generator would measure the VM's
    wake-up latency instead of the program."""
    while clock() < due:
        pass


def saturate(rig: Rig, ops: Sequence[Op], window: int, blocks: int,
             recorder: Any = None) -> SaturateSamples:
    """Closed loop: publish ``window`` writes, settle, repeat. Reads (on
    ``read_mix``) run inline and need no settle. The host's speed is
    sampled between windows, outside the timed stretches."""
    clock = rig.clock
    out = SaturateSamples(attempted=len(ops))
    per_block = len(ops) // blocks
    chunk = window if window > 1 else READ_MIX_CHUNK
    index = 0
    for block in range(blocks):
        readings = [speed.sample()]
        wall = cpu = 0.0
        for first in range(block * per_block, (block + 1) * per_block, chunk):
            wall_start, cpu_start = clock(), time.process_time()
            pending = 0
            for op in ops[first:min(first + chunk, (block + 1) * per_block)]:
                if recorder is not None:
                    recorder.op = index
                index += 1
                if op[0] >= READ_ROW:
                    out.stale_reads += not rig.read(op)[1]
                    continue
                due = clock()
                try:
                    rig.write(op, due)
                except Exception:
                    out.errors += 1
                out.writes.append((rig.ids.get(op[1]), op[0], due, block))
                pending += 1
                if pending == window:
                    rig.settle()
                    pending = 0
            if pending:
                rig.settle()
            wall += clock() - wall_start
            cpu += time.process_time() - cpu_start
            readings.append(speed.sample())
        factor = speed.factor(readings)
        out.blocks.append((per_block, wall / factor, cpu / factor))
        out.factors.append(factor)
    return out


def paced(rig: Rig, arrivals: Sequence[Tuple[float, List[Op]]],
          blocks: int, settle: bool = True) -> PacedSamples:
    """Open loop on one schedule with one origin: every arrival is
    published when it is due (or as soon after as the driver is free),
    all that are due together, then one settle. A write is timed from
    when it was due, not from when it was sent, so a stall charges every
    write queued behind it and an overload shows as lag that grows to
    the end of the phase.

    The rate is frozen in ops per *reference* second: each gap between
    two arrivals is stretched by the host's current speed factor (the
    median of the last few samples) and added to the previous due time,
    so a slow spell of the host changes neither the utilisation the
    program runs at nor, once lag is divided by the block's factor, the
    number reported. Nothing is re-anchored: a due time, once set, stays,
    and the 0.3 ms a speed sample takes (one per 30 ms) is lateness for
    whatever was due meanwhile. ``blocks`` labels equal-count stretches
    of the schedule for the estimators. ``settle=False`` is the generator
    half of ``shard_forward``: the peer does the applying."""
    clock = rig.clock
    out = PacedSamples(publish=[[] for _ in range(blocks)],
                       reads=[[] for _ in range(blocks)])
    readings: List[List[float]] = [[] for _ in range(blocks)]
    count = len(arrivals)
    queue = rig.subs[0].subscriber.queue
    # Beside readers every write is settled at once: a read's expected
    # value is the one as of the last write before it in the stream.
    settle_each = settle and rig.views is not None
    rig.reset_dwell()
    recent = collections.deque(speed.samples(STRETCH_SAMPLES),
                               maxlen=STRETCH_SAMPLES)
    stretch = speed.factor(recent)
    sampled_at = due = clock()
    offset = 0.0
    index = block = 0
    while index < count:
        if clock() - sampled_at >= SAMPLE_EVERY_S:
            recent.append(speed.sample())
            readings[block].append(recent[-1])
            stretch = speed.factor(recent)
            sampled_at = clock()
        wait_until(due + (arrivals[index][0] - offset) * stretch, clock)
        dirty = False
        now = clock()
        while index < count:
            next_due = due + (arrivals[index][0] - offset) * stretch
            if next_due > now:
                break
            due, offset = next_due, arrivals[index][0]
            block = index * blocks // count
            publish, reads = out.publish[block], out.reads[block]
            out.late.append(now - due)
            for op in arrivals[index][1]:
                out.attempted += 1
                if op[0] >= READ_ROW:
                    elapsed, fresh = rig.read(op)
                    reads.append(elapsed)
                    out.stale_reads += not fresh
                    continue
                try:
                    publish.append(rig.write(op, due))
                except Exception:
                    out.errors += 1
                out.writes.append((rig.ids.get(op[1]), op[0], due, block))
                if settle_each:
                    rig.settle()
                else:
                    dirty = True
            index += 1
            now = clock()
        if dirty and settle:
            out.depth_max = max(out.depth_max, len(queue))
            rig.settle()
    out.schedule_end = due
    out.factors = [speed.factor(taken or recent) for taken in readings]
    if settle:
        out.dwell_p50 = rig.dwell_p50()
    return out


# ---------------------------------------------------------------------------
# From stamps to visibility
# ---------------------------------------------------------------------------

def visibility(
    stamps_per_subscriber: Sequence[Sequence[Stamp]],
    writes: Sequence[WriteRecord],
    coalescing: bool,
) -> List[Optional[float]]:
    """For each write, when it was visible at *every* subscriber, or
    ``None`` if at some subscriber it never was.

    A save is matched by ``(row id, sent_at)``; a destroy by row id.
    Under coalescing a write may land only inside a newer one: it is
    then visible when the first write to its row carrying a ``sent_at``
    at least its own lands (a row's writes apply in ``sent_at`` order)."""
    out: List[Optional[float]] = [0.0] * len(writes)
    for stamps in stamps_per_subscriber:
        saved: Dict[Tuple[Any, float], float] = {}
        gone: Dict[Any, float] = {}
        by_row: Dict[Any, Tuple[List[float], List[float]]] = {}
        for row_id, sent_at, at in stamps:
            if sent_at is None:
                gone[row_id] = at
            else:
                saved[(row_id, sent_at)] = at
                if coalescing:
                    sent, landed = by_row.setdefault(row_id, ([], []))
                    sent.append(sent_at)
                    landed.append(at)
        for index, (row_id, kind, due, _block) in enumerate(writes):
            if out[index] is None:
                continue
            if kind == DESTROY:
                at = gone.get(row_id)
            else:
                at = saved.get((row_id, due))
                if at is None and row_id in by_row:
                    sent, landed = by_row[row_id]
                    covering = bisect.bisect_left(sent, due)
                    if covering < len(sent):
                        at = landed[covering]
            out[index] = None if at is None else max(out[index], at)
    return out


def lag_blocks(
    writes: Sequence[WriteRecord],
    visible: Sequence[Optional[float]],
    blocks: int,
) -> List[List[float]]:
    """Lag samples (visible - due) per block, one per applied message:
    writes that share a row and a due time (one coalesced burst) yield
    one sample."""
    out: List[List[float]] = [[] for _ in range(blocks)]
    seen = set()
    for (row_id, _kind, due, block), at in zip(writes, visible):
        if at is None or (row_id, due) in seen:
            continue
        seen.add((row_id, due))
        out[block].append(at - due)
    return out


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def at_reference_speed(blocks: Sequence[Sequence[float]],
                       factors: Sequence[float]) -> List[List[float]]:
    """Each block's samples divided by the speed factor it ran at."""
    return [[value / factor for value in block]
            for block, factor in zip(blocks, factors)]


def block_median(blocks: Sequence[Sequence[float]], p: float) -> float:
    """Median over the non-empty blocks of each block's ``p``-th percentile."""
    return statistics.median(percentile(block, p) for block in blocks if block)
