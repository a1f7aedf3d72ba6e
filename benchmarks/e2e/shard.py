"""``shard_forward``: the same phases across two OS processes.

``shard0`` owns the publisher and runs the generator; ``shard1`` owns
the one subscriber and runs a polling drain loop; every message crosses
``PeerLink``. The parent only sleeps on its command pipes.

The phase plan (op lists, arrival schedules) is generated in the parent
before the shards are forked, so both children hold it without any of
it crossing a pipe. A phase ends when the subscriber applies the
sentinel row the generator writes last. Times are ``time.monotonic()``,
which is system-wide on Linux, so a stamp taken in one process can be
subtracted from a due time set in the other.
"""

from __future__ import annotations

import gc
import mmap
import os
import resource
import struct
import time
from functools import partial
from typing import Any, Dict, List, Tuple

from benchmarks.e2e import phases, rig as rig_module, speed, trace
from benchmarks.e2e.workloads import Workload
from repro.runtime.transport.shard import ShardRunner

GENERATOR, CONSUMER = "shard0", "shard1"
#: The consumer gives a phase up after this long without a message.
STALL_CAP_S = 30.0


class SharedCounter:
    """One 64-bit count in anonymous shared memory, created before the
    fork: the consumer publishes how many writes it has applied, the
    generator reads it to keep a closed-loop window. No file backs it."""

    def __init__(self) -> None:
        self._map = mmap.mmap(-1, 8)

    def set(self, value: int) -> None:
        struct.pack_into("q", self._map, 0, value)

    def get(self) -> int:
        return struct.unpack_from("q", self._map, 0)[0]


def _build(workload: Workload, data_root: str, traced: bool) -> Any:
    """ShardRunner builder: every shard declares the whole topology; the
    preload is phase 0 of the generator, not part of the build.

    A traced mesh installs the span wrappers here, before the peer links
    exist: ``PeerLink`` binds ``broker.deliver_remote`` when it is
    constructed, so a wrapper installed later would never see the
    receiving half of the hop."""
    recorder = trace.install(time.monotonic) if traced else None
    rig = rig_module.build(workload, time.monotonic, data_root, preload=False)
    rig.recorder = recorder
    return rig.eco


class Scenario:
    """What each shard does on every ``run`` command: its side of the
    next phase of the plan."""

    def __init__(self, plan: List[Dict[str, Any]]) -> None:
        self.plan = plan
        self.applied = SharedCounter()
        self._next = 0

    def __call__(self, ecosystem: Any, shard_name: str) -> Dict[str, Any]:
        phase = self.plan[self._next]
        self._next += 1
        side = _generate if shard_name == GENERATOR else _consume
        recorder = ecosystem.bench.recorder
        result = side(ecosystem.bench, phase, self.applied, recorder)
        if recorder is not None:
            if phase["kind"] != "preload":
                result["spans"] = recorder.spans()
            # Cleared at the quiet end of a phase, never at the start of
            # one: the peer may already be sending by then.
            recorder.clear()
        result["metrics"] = ecosystem.metrics.snapshot()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["gc_collections"] = sum(g["collections"] for g in gc.get_stats())
        return result


_yield = getattr(os, "sched_yield", lambda: time.sleep(0))


def _mark(count: int) -> Tuple[int, float, float]:
    return (count, time.monotonic(), time.process_time())


def _generate(rig: Any, phase: Dict[str, Any], applied: SharedCounter,
              recorder: Any) -> Dict[str, Any]:
    kind = phase["kind"]
    clock = rig.clock
    out: Dict[str, Any] = {"errors": 0, "writes": [], "marks": []}
    if kind == "preload":
        out["readings"] = []
        rig.preload(lambda: out["readings"].append(speed.sample()))
        return out
    applied.set(0)
    if kind == "saturate":
        ops, window, blocks = phase["ops"], phase["window"], phase["blocks"]
        per_block = len(ops) // blocks
        writes = out["writes"]
        #: Per block: CPU seconds that are the benchmark's own
        #: (spinning on a full window).
        out["own_cpu"] = [0.0] * blocks
        #: Timed speed samples ``(taken at, seconds)`` of this core.
        readings = out["readings"] = [(clock(), speed.sample())]
        sampled_at = clock()
        out["marks"].append(_mark(0))
        for index, op in enumerate(ops):
            block = index // per_block
            # A sliding window, so the two processes overlap instead of
            # taking turns. It spins: a sleep here returns milliseconds
            # late on this kind of host and would set the throughput.
            if index - applied.get() >= window:
                waiting = clock()
                while index - applied.get() >= window:
                    if clock() - waiting > STALL_CAP_S:
                        raise RuntimeError(
                            f"subscriber shard stalled at {applied.get()} "
                            f"of {index} writes"
                        )
                out["own_cpu"][block] += clock() - waiting
            if recorder is not None:
                recorder.op = index
            due = clock()
            try:
                rig.write(op, due)
            except Exception:
                out["errors"] += 1
            writes.append((rig.ids.get(op[1]), op[0], due, block))
            if (index + 1) % per_block == 0:
                out["marks"].append(_mark(index + 1))
            # One 0.3 ms speed sample per 30 ms: the pipeline stands
            # still for 1 % of the phase, on both sides of a comparison.
            if clock() - sampled_at >= phases.SAMPLE_EVERY_S:
                started = clock()
                readings.append((started, speed.sample()))
                sampled_at = clock()
                out["own_cpu"][block] += sampled_at - started
    else:  # paced
        sample = phases.paced(rig, phase["arrivals"], phase["blocks"],
                              settle=False)
        out.update(
            writes=sample.writes, publish=sample.publish, late=sample.late,
            factors=sample.factors, schedule_end=sample.schedule_end,
            errors=sample.errors,
        )
    rig.end_phase(phase["marker"])
    return out


def _consume(rig: Any, phase: Dict[str, Any], applied: SharedCounter,
             recorder: Any) -> Dict[str, Any]:
    kind = phase["kind"]
    out: Dict[str, Any] = {"marks": [], "depth_max": 0, "timed_out": False}
    subscriber = rig.subs[0].subscriber
    queue = subscriber.queue
    rig.reset_stamps()
    rig.reset_dwell()
    stamps = rig.stamps[0]
    per_block = phase.get("per_block", 0)
    next_mark = per_block
    out["marks"].append(_mark(0))
    #: Per block: seconds spent polling an empty queue — the benchmark's
    #: own CPU, taken back out of ``cpu_us_per_op`` like the generator's.
    out["own_cpu"] = [0.0]
    clock = rig.clock
    #: Timed speed samples of this core, one per 30 ms, on the clock.
    readings = out["readings"] = [(clock(), speed.sample())]
    sampled_at = clock()
    idle_since = None
    while not rig.sentinel_seen:
        if clock() - sampled_at >= phases.SAMPLE_EVERY_S:
            started = clock()
            readings.append((started, speed.sample()))
            sampled_at = clock()
            if idle_since is None:  # else the idle span covers it
                out["own_cpu"][-1] += sampled_at - started
        depth = len(queue)
        if not depth:
            # A polling drain loop, not a blocking pop: a thread that
            # sleeps on this kind of host wakes up milliseconds late, and
            # that would be the lag. The yield hands the GIL, and the
            # core if it wants it, to the link's reader thread.
            if idle_since is None:
                idle_since = clock()
            elif clock() - idle_since > STALL_CAP_S:
                out["timed_out"] = True
                break
            _yield()
            continue
        if idle_since is not None:
            out["own_cpu"][-1] += clock() - idle_since
            idle_since = None
        out["depth_max"] = max(out["depth_max"], depth)
        subscriber.drain()
        applied.set(len(stamps))
        if per_block and len(stamps) >= next_mark:
            out["marks"].append(_mark(len(stamps)))
            out["own_cpu"].append(0.0)
            next_mark += per_block
    out["stamps"] = list(stamps)
    out["dwell_p50"] = rig.dwell_p50()
    return out


def _verify(ecosystem: Any, shard_name: str) -> Dict[str, Any]:
    """The oracle's cross-shard half: the subscriber audits its replica
    against the publisher over the control plane."""
    if shard_name != CONSUMER:
        return {}
    report = ecosystem.bench.subs[0].audit_replication()
    return {
        "in_sync": report.in_sync,
        "divergent": report.divergent_total,
        "rows": ecosystem.bench.sub_items[0].count(),
    }


class ShardedRun:
    """Parent-side handle on one started two-shard mesh."""

    def __init__(self, workload: Workload, data_root: str,
                 plan: List[Dict[str, Any]], traced: bool = False) -> None:
        self.scenario = Scenario([{"kind": "preload"}] + plan)
        self.runner = ShardRunner(
            partial(_build, workload, data_root, traced),
            {GENERATOR: ["pub"], CONSUMER: ["sub0"]},
            scenario=self.scenario,
            verify=_verify,
            timeout=120.0,
        )

    def start(self) -> List[Dict[str, Any]]:
        """Spawn both shards and preload through the link: ``setup_s``.
        Returns the two sides' preload results."""
        self.runner.start()
        return list(self.runner.run_scenarios().values())

    def next_phase(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        results = self.runner.run_scenarios()
        return results[GENERATOR], results[CONSUMER]

    def verify(self) -> Dict[str, Any]:
        return self.runner.run_verify()[CONSUMER]

    def finish(self) -> Dict[str, Any]:
        """Per-shard link statistics; the shard processes exit."""
        try:
            return self.runner.finish()
        finally:
            self.runner.close()

    def abort(self) -> None:
        self.runner.close()
