"""The metric tables — name, unit, direction, bound — and the functions
that compute each row from a run's samples.

``BENCHMARK.json`` at the repo root lists the same names; the smoke test
holds the two in step.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from benchmarks.e2e import phases
from benchmarks.e2e.trace import Summary

#: name, unit, better, regression bound (share of the parent's median).
#: A metric that does not apply to a workload is absent from its row:
#: ``read_p50_us`` exists on ``read_mix`` only.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.10),
    ("lag_p50_ms", "ms", "lower", 0.10),
    ("lag_p99_ms", "ms", "lower", 0.20),
    ("publish_p50_us", "us", "lower", 0.10),
    ("cpu_us_per_op", "us", "lower", 0.10),
    ("read_p50_us", "us", "lower", 0.10),
]

#: name, unit, better. Time rows are self time per op of the traced pass.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("orm.intercept_us", "us", "lower"),
    ("orm.apply_us", "us", "lower"),
    ("publisher.write_us", "us", "lower"),
    ("publisher.deps_per_msg", "count", "lower"),
    ("versionstore.register_us", "us", "lower"),
    ("versionstore.wait_us", "us", "lower"),
    ("versionstore.apply_us", "us", "lower"),
    ("databases.pub_write_us", "us", "lower"),
    ("databases.sub_write_us", "us", "lower"),
    ("message.encode_us", "us", "lower"),
    ("message.decode_us", "us", "lower"),
    ("message.encodes_per_op", "count", "lower"),
    ("message.decodes_per_op", "count", "lower"),
    ("message.bytes_per_op", "bytes", "lower"),
    ("broker.publish_us", "us", "lower"),
    ("broker.deliver_remote_us", "us", "lower"),
    ("queue.publish_us", "us", "lower"),
    ("queue.pop_us", "us", "lower"),
    ("queue.ack_us", "us", "lower"),
    ("queue.dwell_p50_ms", "ms", "lower"),
    ("queue.depth_max", "count", "lower"),
    ("flow.admit_us", "us", "lower"),
    ("flow.coalesce_us", "us", "lower"),
    ("flow.coalesced_share", "share", "higher"),
    ("flow.shed_share", "share", "lower"),
    ("flow.batch_size_mean", "count", "higher"),
    ("durability.log_us", "us", "lower"),
    ("wal.encode_us", "us", "lower"),
    ("wal.append_us", "us", "lower"),
    ("wal.records_per_op", "count", "lower"),
    ("wal.bytes_per_op", "bytes", "lower"),
    ("wal.fsyncs_per_kop", "count", "lower"),
    ("durability.tax_x", "x", "lower"),
    ("transport.send_us", "us", "lower"),
    ("transport.hop_p50_ms", "ms", "lower"),
    ("transport.frames_per_op", "count", "lower"),
    ("transport.bytes_per_op", "bytes", "lower"),
    ("cdc.outbox_write_us", "us", "lower"),
    ("cdc.poll_us", "us", "lower"),
    ("cdc.ingest_us", "us", "lower"),
    ("cdc.entries_per_poll", "count", "higher"),
    ("cdc.poll_lag_p50_ms", "ms", "lower"),
    ("subscriber.process_us", "us", "lower"),
    ("subscriber.drain_us", "us", "lower"),
    ("subscriber.deferred_share", "share", "lower"),
    ("subscriber.duplicates", "count", "lower"),
    ("views.fold_us", "us", "lower"),
    ("cache.invalidate_us", "us", "lower"),
    ("cache.read_us", "us", "lower"),
    ("cache.hit_share", "share", "higher"),
    ("host.speed_factor", "x", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("process.gc_collections", "count", "lower"),
    ("generator.late_p99_ms", "ms", "lower"),
    ("backlog_end", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("unattributed_us", "us", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})

#: Span names whose self time is reported as ``<name>_us``.
_TIMED_LAYERS = [name[:-3] for name, unit, _ in PER_LAYER
                 if unit == "us" and name != "unattributed_us"]


def throughput(blocks: Sequence[phases.Block]) -> float:
    """Median over blocks of ops per wall second."""
    return statistics.median(ops / wall for ops, wall, _cpu in blocks)


def end_to_end(
    setups: Sequence[float],
    saturate_blocks: Sequence[phases.Block],
    lag_blocks: Sequence[Sequence[float]],
    publish_blocks: Sequence[Sequence[float]],
    read_blocks: Sequence[Sequence[float]],
) -> Dict[str, float]:
    """Every end-to-end row that applies. All inputs are already in
    seconds at reference speed; ``read_blocks`` is empty off ``read_mix``."""
    out = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": throughput(saturate_blocks),
        "lag_p50_ms": phases.block_median(lag_blocks, 50) * 1e3,
        "lag_p99_ms": phases.block_median(lag_blocks, 99) * 1e3,
        "publish_p50_us": phases.block_median(publish_blocks, 50) * 1e6,
        "cpu_us_per_op": statistics.median(
            cpu / ops for ops, _wall, cpu in saturate_blocks) * 1e6,
    }
    if any(read_blocks):
        out["read_p50_us"] = phases.block_median(read_blocks, 50) * 1e6
    return out


def counter_delta(before: Dict[str, Any], after: Dict[str, Any],
                  prefix: str, suffix: str) -> float:
    """Sum of the growth of every plain counter named ``prefix*suffix``."""
    total = 0.0
    for name, value in after.items():
        if name.startswith(prefix) and name.endswith(suffix) \
                and not isinstance(value, dict):
            total += value - before.get(name, 0)
    return total


def histogram_mean_delta(before: Dict[str, Any], after: Dict[str, Any],
                         prefix: str, suffix: str) -> float:
    """Mean of the samples the ``prefix*suffix`` histograms gained."""
    count = total = 0.0
    for name, value in after.items():
        if name.startswith(prefix) and name.endswith(suffix):
            earlier = before.get(name, {"count": 0, "mean": 0.0})
            count += value["count"] - earlier["count"]
            total += (value["mean"] * value["count"]
                      - earlier["mean"] * earlier["count"])
    return total / count if count else 0.0


def per_layer(
    summary: Summary,
    traced: phases.Block,
    factor: float,
    untraced_ops_s: float,
    before: Dict[str, Any],
    after: Dict[str, Any],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer row. ``traced`` is the traced pass's one block
    and ``factor`` the speed factor it ran at: self times are divided by
    it like every other time.
    ``before``/``after`` are the program's own metrics snapshots around
    the pass (summed over processes); ``extras`` carries the rows
    measured elsewhere (paced-phase diagnostics, process statistics,
    the cross-process hop)."""
    ops, traced_wall_s, _cpu = traced

    def calls(name: str) -> float:
        return summary.get(name, (0.0, 0, 0.0))[1]

    def size(name: str) -> float:
        return summary.get(name, (0.0, 0, 0.0))[2]

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    out = {
        f"{layer}_us": summary.get(layer, (0.0, 0, 0.0))[0] / factor / ops * 1e6
        for layer in _TIMED_LAYERS
    }
    wall_us = traced_wall_s / ops * 1e6
    out["unattributed_us"] = wall_us - sum(out.values())
    out["trace.overhead_share"] = 1.0 - throughput([traced]) / untraced_ops_s

    out["publisher.deps_per_msg"] = ratio(
        size("broker.publish"), calls("broker.publish"))
    out["message.encodes_per_op"] = calls("message.encode") / ops
    out["message.decodes_per_op"] = calls("message.decode") / ops
    out["message.bytes_per_op"] = size("message.encode") / ops
    out["wal.records_per_op"] = calls("wal.append") / ops
    out["wal.bytes_per_op"] = size("wal.encode") / ops
    out["wal.fsyncs_per_kop"] = counter_delta(
        before, after, "durability.wal.", "fsyncs") / ops * 1e3
    out["transport.frames_per_op"] = calls("transport.send") / ops
    out["transport.bytes_per_op"] = size("transport.send") / ops
    out["cdc.entries_per_poll"] = ratio(size("cdc.poll"), calls("cdc.poll"))
    # The poller's own commit-to-publish histogram; a reservoir p50
    # cannot be differenced, so this row covers the whole run.
    poll_lag = [v for k, v in after.items()
                if k.startswith("cdc.") and k.endswith(".poll_lag")]
    out["cdc.poll_lag_p50_ms"] = poll_lag[0]["p50"] * 1e3 if poll_lag else 0.0

    coalesced = counter_delta(before, after, "flow.", ".coalesced")
    shed = counter_delta(before, after, "flow.", ".shed")
    offered = calls("queue.publish")
    out["flow.coalesced_share"] = ratio(coalesced, offered)
    out["flow.shed_share"] = ratio(shed, offered)
    out["flow.batch_size_mean"] = histogram_mean_delta(
        before, after, "flow.", ".batch_size")

    applied = counter_delta(before, after, "subscriber.", ".processed")
    deferred = size("subscriber.process")
    out["subscriber.deferred_share"] = ratio(deferred, deferred + applied)
    out["subscriber.duplicates"] = counter_delta(
        before, after, "subscriber.", ".duplicates")
    hits = counter_delta(before, after, "cache.", ".hits")
    misses = counter_delta(before, after, "cache.", ".misses")
    out["cache.hit_share"] = ratio(hits, hits + misses)
    out.update(extras)
    return out
