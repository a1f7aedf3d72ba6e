"""One workload run, start to finish: set up (three times, for a median
``setup_s``), saturate, paced, optional traced pass, oracle.

Returns one result row: the end-to-end metrics, the per-layer metrics
when traced, ``ops_attempted`` / ``ops_failed`` and the oracle's notes.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import metrics, oracle, phases, speed, trace
from benchmarks.e2e.rig import Rig, build
from benchmarks.e2e.workloads import (
    PACED_BLOCKS,
    SATURATE_BLOCKS,
    TRACED_OPS,
    WORKLOADS,
    OpStream,
    Workload,
    phase_sizes,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class BenchmarkError(RuntimeError):
    """The run could not produce its numbers (a phase stalled, a shard
    died): distinct from ops that failed, which are counted."""


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _sum_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Several processes' metric snapshots as one (their counter names
    are disjoint per service; histograms are kept from the first that
    has them)."""
    out: Dict[str, Any] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, dict):
                if value.get("count") or name not in out:
                    out[name] = value
            else:
                out[name] = out.get(name, 0) + value
    return out


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    results_dir: str,
    quick: bool = False,
) -> Dict[str, Any]:
    """``quick`` runs every phase at a tenth of its size and sets up
    once: a smoke run whose numbers are not comparable with anything."""
    os.makedirs(results_dir, exist_ok=True)
    scale = 10 if quick else 1
    stream = OpStream(workload, seed)
    saturate_ops, paced_ops = phase_sizes(workload, seconds / scale)
    traced_ops = TRACED_OPS // scale if traced else 0
    plan: Dict[str, Any] = {
        "seed": seed,
        "setups": 1 if quick else SETUPS,
        "saturate": stream.take(saturate_ops),
        "arrivals": stream.arrivals(paced_ops, workload.rate_ops_s),
        # The traced pass and, just before it, an untraced pass of the
        # same shape and size: their ratio is the tracing overhead.
        "reference": stream.take(traced_ops),
        "traced": stream.take(traced_ops),
    }
    runner = _run_sharded if workload.sharded else _run_inproc
    row = runner(workload, plan, results_dir)
    row.update(workload=workload.name, seed=seed, seconds=seconds)
    limit = max(phases.BACKLOG_LIMIT, workload.window)
    paced_attempted = row.pop("paced_attempted")
    if row["backlog_end"] > limit:
        # Unsustainable: every paced op misses its latency bound.
        row["ops_failed"] += paced_attempted
        row["problems"].append(
            f"paced phase unsustainable: backlog_end={row['backlog_end']} "
            f"> {limit}")
    if traced and workload.durability:
        # The logging tax is a ratio of two rows; a single-workload run
        # measures its own denominator on the same topology without the WAL.
        baseline = WORKLOADS["inproc_fanout3"]
        rig = build(baseline, time.perf_counter, results_dir)
        ops = OpStream(baseline, seed).take(len(plan["saturate"]) // 2)
        sample = phases.saturate(rig, ops, baseline.window, SATURATE_BLOCKS // 2)
        rig.close()
        row["per_layer"]["durability.tax_x"] = (
            metrics.throughput(sample.blocks)
            / row["end_to_end"]["throughput_ops_s"]
        )
    return row


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def _run_inproc(workload: Workload, plan: Dict[str, Any],
                results_dir: str) -> Dict[str, Any]:
    clock = time.perf_counter
    setups: List[float] = []
    rig: Optional[Rig] = None
    for _ in range(plan["setups"]):
        if rig is not None:
            rig.close()
        # Speed samples run inside the set-up, every hundred preloaded
        # items; the time they take is taken back out.
        readings: List[float] = []
        start = clock()
        rig = build(workload, clock, results_dir,
                    tick=lambda: readings.append(speed.sample()))
        setups.append((clock() - start - sum(readings))
                      / speed.factor(readings))
    assert rig is not None
    # The discarded set-ups are garbage now; collect it here rather than
    # in the middle of a timed block.
    gc.collect()
    collections = _gc_collections()
    try:
        sat = phases.saturate(rig, plan["saturate"], workload.window,
                              SATURATE_BLOCKS)
        sat_visible = phases.visibility(rig.stamps, sat.writes, workload.flow)
        rig.reset_stamps()
        pac = phases.paced(rig, plan["arrivals"], PACED_BLOCKS)
        pac_visible = phases.visibility(rig.stamps, pac.writes, workload.flow)
        rig.reset_stamps()
        collections = _gc_collections() - collections

        failed = sat.errors + pac.errors + sat.stale_reads + pac.stale_reads
        failed += _unseen(sat_visible) + _unseen(pac_visible)
        attempted = sat.attempted + pac.attempted
        backlog = _backlog(pac_visible, pac.schedule_end)
        lags = phases.lag_blocks(pac.writes, pac_visible, PACED_BLOCKS)

        layer_rows = None
        if plan["traced"]:
            reference = phases.saturate(rig, plan["reference"],
                                        workload.window, 1)
            overhead = trace.span_overhead(clock)
            before = rig.eco.metrics.snapshot()
            recorder = trace.install(clock)
            try:
                tr = phases.saturate(rig, plan["traced"], workload.window, 1,
                                     recorder)
            finally:
                recorder.uninstall()
            after = rig.eco.metrics.snapshot()
            for sample in (reference, tr):
                visible = phases.visibility(rig.stamps, sample.writes,
                                            workload.flow)
                failed += sample.errors + sample.stale_reads + _unseen(visible)
                attempted += sample.attempted
            threads = recorder.spans()
            _dump_spans(results_dir, workload.name, {"driver": threads})
            layer_rows = metrics.per_layer(
                trace.summarise(threads, overhead), tr.blocks[0],
                tr.factors[0], metrics.throughput(reference.blocks),
                before, after,
                _extras(sat.factors + pac.factors, pac.late, backlog,
                        pac.depth_max, pac.dwell_p50, collections, 0.0,
                        _peak_rss_kb()),
            )
        verdict = oracle.check_inproc(rig)
    finally:
        rig.close()
    return _row(
        metrics.end_to_end(
            setups, sat.blocks,
            phases.at_reference_speed(lags, pac.factors),
            phases.at_reference_speed(pac.publish, pac.factors),
            phases.at_reference_speed(pac.reads, pac.factors)),
        attempted, failed, backlog, pac.attempted, verdict, layer_rows,
    )


# ---------------------------------------------------------------------------
# shard_forward
# ---------------------------------------------------------------------------

def _saturate_phase(ops: Sequence[Any], workload: Workload, blocks: int,
                    marker: int) -> Dict[str, Any]:
    return {"kind": "saturate", "ops": ops, "window": workload.window,
            "blocks": blocks, "marker": marker,
            "per_block": len(ops) // blocks}


def _block_factors(readings: Sequence[Tuple[float, float]],
                   starts: Sequence[float]) -> List[float]:
    """Speed factor per block from one process's timed speed samples
    ``(taken at, seconds)``; block ``i`` begins at ``starts[i]``. A block
    without a sample takes the phase's factor."""
    taken: List[List[float]] = [[] for _ in starts]
    for at, value in readings:
        taken[max(0, bisect.bisect_right(starts, at) - 1)].append(value)
    whole = [value for _at, value in readings]
    return [speed.factor(block or whole) for block in taken]


def _sharded_saturate(run: Any) -> Dict[str, Any]:
    """Run the mesh's next (saturate-shaped) phase and fold both shards'
    halves into blocks, failures and the raw results.

    Each shard samples the speed of its own core. A block's CPU is each
    process's own, divided by that process's factor; its wall time is
    divided by the factor of the process that was busier in it, because
    that one set the pace."""
    # The parent sleeps on its pipes, but what it does burn belongs to
    # "every process in the run".
    parent_cpu = time.process_time()
    gen, con = run.next_phase()
    parent_cpu = time.process_time() - parent_cpu
    if con["timed_out"]:
        raise BenchmarkError(
            "shard_forward: the subscriber shard saw no message for 30 s "
            "and never the sentinel"
        )
    gen_marks, con_marks = gen["marks"], con["marks"]
    if len(con_marks) != len(gen_marks):
        raise BenchmarkError("shard_forward: block marks do not line up")
    count = len(gen_marks) - 1
    gen_factors = _block_factors(gen["readings"],
                                 [mark[1] for mark in gen_marks[:-1]])
    con_factors = _block_factors(con["readings"],
                                 [mark[1] for mark in con_marks[:-1]])
    blocks, factors = [], []
    for index in range(1, count + 1):
        # Wall: from the previous block's last apply (the generator's
        # start, for the first) to this block's last apply.
        began = con_marks[index - 1][1] if index > 1 else gen_marks[0][1]
        wall = con_marks[index][1] - began
        gen_cpu = (gen_marks[index][2] - gen_marks[index - 1][2]
                   - gen["own_cpu"][index - 1] + parent_cpu / count)
        con_cpu = (con_marks[index][2] - con_marks[index - 1][2]
                   - con["own_cpu"][index - 1])
        gen_factor, con_factor = gen_factors[index - 1], con_factors[index - 1]
        factor = gen_factor if gen_cpu >= con_cpu else con_factor
        blocks.append((gen_marks[index][0] - gen_marks[index - 1][0],
                       wall / factor,
                       gen_cpu / gen_factor + con_cpu / con_factor))
        factors.append(factor)
    visible = phases.visibility([con["stamps"]], gen["writes"], False)
    return {
        "blocks": blocks, "factors": factors,
        "failed": gen["errors"] + _unseen(visible),
        "gen": gen, "con": con,
    }


def _run_sharded(workload: Workload, plan: Dict[str, Any],
                 results_dir: str) -> Dict[str, Any]:
    from benchmarks.e2e.shard import ShardedRun

    phase_plan: List[Dict[str, Any]] = [
        _saturate_phase(plan["saturate"], workload, SATURATE_BLOCKS, 1),
        {"kind": "paced", "arrivals": plan["arrivals"],
         "blocks": PACED_BLOCKS, "marker": 2},
    ]
    if plan["traced"]:
        phase_plan.append(_saturate_phase(plan["reference"], workload, 1, 3))
    setups: List[float] = []
    run = None
    for attempt in range(plan["setups"]):
        if run is not None:
            run.finish()
        run = ShardedRun(workload, results_dir,
                         phase_plan if attempt == plan["setups"] - 1 else [])
        start = time.monotonic()
        try:
            preload = run.start()
        except BaseException:
            run.abort()
            raise
        # The generator samples the host's speed through its preload.
        readings = preload[0]["readings"]
        setups.append((time.monotonic() - start - sum(readings))
                      / speed.factor(readings))
    assert run is not None
    try:
        collections = sum(side["gc_collections"] for side in preload)
        sat = _sharded_saturate(run)
        failed = sat["failed"]
        attempted = len(plan["saturate"])

        gen, con = run.next_phase()
        if con["timed_out"]:
            raise BenchmarkError("shard_forward: the paced phase stalled")
        pac_writes = gen["writes"]
        pac_visible = phases.visibility([con["stamps"]], pac_writes, False)
        failed += gen["errors"] + _unseen(pac_visible)
        attempted += len(pac_writes)
        backlog = _backlog(pac_visible, gen["schedule_end"])
        late = gen["late"]
        # A lag is spent on both cores: the mean of the two factors.
        starts = [min(due for _id, _kind, due, block in pac_writes
                      if block == index) for index in range(PACED_BLOCKS)]
        factors = [(a + b) / 2 for a, b in zip(
            gen["factors"], _block_factors(con["readings"], starts))]
        lags = phases.at_reference_speed(
            phases.lag_blocks(pac_writes, pac_visible, PACED_BLOCKS), factors)
        publish = phases.at_reference_speed(gen["publish"], gen["factors"])
        depth_max, dwell_p50 = con["depth_max"], con["dwell_p50"]
        collections = (gen["gc_collections"] + con["gc_collections"]
                       - collections)
        peak_kb = gen["peak_rss_kb"] + con["peak_rss_kb"]

        reference = None
        if plan["traced"]:
            reference = _sharded_saturate(run)
            failed += reference["failed"]
            attempted += len(plan["reference"])
        verdict = oracle.check_sharded(
            run.verify(), run.finish(), gen["metrics"], con["metrics"])
    except BaseException:
        run.abort()
        raise

    layer_rows = None
    if reference is not None:
        # The traced pass runs on a mesh of its own, so the timed phases
        # above never ran under a wrapper (see ``shard._build``). A fresh
        # mesh holds only the preload, hence a fresh op stream.
        ops = OpStream(workload, plan["seed"]).take(len(plan["traced"]))
        run = ShardedRun(workload, results_dir,
                         [_saturate_phase(ops, workload, 1, 1)], traced=True)
        try:
            preload = run.start()
            tr = _sharded_saturate(run)
            run.finish()
        except BaseException:
            run.abort()
            raise
        failed += tr["failed"]
        attempted += len(ops)
        spans = {"shard0": tr["gen"]["spans"], "shard1": tr["con"]["spans"]}
        _dump_spans(results_dir, workload.name, spans)
        overhead = trace.span_overhead(time.monotonic)
        sends = trace.starts(spans["shard0"], "transport.send")
        receipts = trace.starts(spans["shard1"], "broker.deliver_remote")
        hops = [b - a for a, b in zip(sends, receipts)]
        layer_rows = metrics.per_layer(
            trace.merge([trace.summarise(t, overhead) for t in spans.values()]),
            tr["blocks"][0], tr["factors"][0],
            metrics.throughput(reference["blocks"]),
            _sum_snapshots([side["metrics"] for side in preload]),
            _sum_snapshots([tr["gen"]["metrics"], tr["con"]["metrics"]]),
            _extras(sat["factors"] + factors, late, backlog, depth_max,
                    dwell_p50, collections,
                    phases.percentile(hops, 50) if hops else 0.0,
                    _peak_rss_kb() + peak_kb),
        )
    return _row(
        metrics.end_to_end(setups, sat["blocks"], lags, publish, []),
        attempted, failed, backlog, len(pac_writes), verdict, layer_rows,
    )


# ---------------------------------------------------------------------------
# Shared assembly
# ---------------------------------------------------------------------------

def _unseen(visible: Sequence[Optional[float]]) -> int:
    """Writes that never became visible at some subscriber."""
    return sum(at is None for at in visible)


def _backlog(visible: Sequence[Optional[float]], schedule_end: float) -> int:
    """Writes not yet visible a moment after the paced schedule ended."""
    deadline = schedule_end + phases.BACKLOG_GRACE_S
    return sum(at is None or at > deadline for at in visible)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _extras(factors: Sequence[float], late: Sequence[float], backlog: int,
            depth_max: int, dwell_p50: float, collections: int,
            hop_p50: float, peak_rss_kb: int) -> Dict[str, float]:
    """The per-layer rows that do not come from spans. ``factors`` are
    the speed factors of the run's saturate and paced blocks."""
    return {
        "host.speed_factor": statistics.median(factors),
        "queue.dwell_p50_ms": dwell_p50 * 1e3,
        "queue.depth_max": float(depth_max),
        "generator.late_p99_ms": phases.percentile(late, 99) * 1e3,
        "backlog_end": float(backlog),
        "process.gc_collections": float(collections),
        "process.peak_rss_mb": peak_rss_kb / 1024.0,
        "transport.hop_p50_ms": hop_p50 * 1e3,
        "durability.tax_x": 0.0,
    }


def _row(end_to_end: Dict[str, float], attempted: int, failed: int,
         backlog: int, paced_attempted: int, verdict: Dict[str, Any],
         layer_rows: Optional[Dict[str, float]]) -> Dict[str, Any]:
    return {
        "ops_attempted": attempted,
        "ops_failed": failed + verdict["divergent"],
        "backlog_end": backlog,
        "paced_attempted": paced_attempted,
        "end_to_end": end_to_end,
        "per_layer": layer_rows,
        "problems": list(verdict["problems"]),
    }


def _dump_spans(results_dir: str, workload: str,
                spans: Dict[str, List[List[trace.Span]]]) -> None:
    """Spans leave memory only here, after the traced pass has ended."""
    path = os.path.join(results_dir, f"spans-{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"fields": ["name", "start", "end", "parent", "op", "n"],
             "processes": spans},
            handle,
        )
