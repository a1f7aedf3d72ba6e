"""Cost of cross-shard trace propagation on the forwarded path.

PR 9 puts trace context *on the wire*: a sampled message's envelope
carries ``trace`` across ``Broker.deliver_remote``, the origin records a
``transport.forward`` span plus a partial trace, and the receiving shard
resumes the same trace_id. All of that must stay off the fast path for
unsampled messages — head-based sampling means an unsampled forward
serializes exactly the wire payload it always did, no span objects, no
extra JSON field.

This benchmark drives the forwarded path between two in-process
ecosystems wired through the broker's placement seam (the same
serialize→forward→deliver_remote sequence the OS-process shards use,
minus pipe noise that would swamp a 5% bound) and times publish+drain at
sampling off / 1% / 100%. Paired within-block minima cancel exogenous
load, as in ``bench_observability_overhead``. Results land in
``BENCH_cluster.json`` at the repo root; set ``REPRO_BENCH_QUICK=1`` for
the small workload. The gate: 1% sampling within 5% of tracing-off.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

from benchmarks.common import emit, format_table
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
WRITES = 400 if QUICK else 1200
BLOCKS = 3 if QUICK else 6
RATES = [0.0, 0.01, 1.0]  # each compared against tracing never enabled

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_cluster.json")


def build_full():
    """One full pub→sub topology (both processes build the whole app in
    the shard runtime too; placement decides what runs locally)."""
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name", "score"])
    class User(Model):
        name = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name", "score"]},
               name="User")
    class SubUser(Model):
        name = Field(str)
        score = Field(int, default=0)

    return eco, pub, sub, User


def build_pair():
    """Two ecosystems joined at the broker seam: ``origin`` owns the
    publisher, ``receiver`` owns the subscriber, and every message
    crosses ``deliver_remote`` as a wire string — the forwarded path."""
    origin, pub, _, User = build_full()
    receiver, _, recv_sub, _ = build_full()
    origin.owned_services = {"pub"}
    receiver.owned_services = {"sub"}
    origin.broker.attach(placement=(
        lambda sub_name: sub_name != "sub",
        lambda sub_name, payload: receiver.broker.deliver_remote(
            sub_name, payload
        ),
    ))
    return origin, receiver, pub, recv_sub, User


def run_once(rate) -> float:
    """Wall-clock of one forwarded publish+drain workload at one rate
    (``None`` = tracing never enabled)."""
    origin, receiver, pub, recv_sub, User = build_pair()
    if rate is not None:
        origin.enable_tracing(sample_rate=rate, seed=11)
        receiver.enable_tracing(sample_rate=rate, seed=11)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        with pub.controller():
            for i in range(WRITES):
                User.create(name=f"u{i}", score=i)
        recv_sub.subscriber.drain()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert receiver.metrics.value(f"subscriber.{recv_sub.name}.processed") == WRITES
    return elapsed


def measure(rate) -> dict:
    """Minimum of paired within-block ratios — the least-contaminated
    estimate of the real sampling overhead (see module docstring)."""
    ratios = []
    best_off = best_rate = float("inf")
    for _ in range(BLOCKS):
        off_a = run_once(None)
        rate_a = run_once(rate)
        rate_b = run_once(rate)
        off_b = run_once(None)
        ratios.append(min(rate_a, rate_b) / min(off_a, off_b))
        best_off = min(best_off, off_a, off_b)
        best_rate = min(best_rate, rate_a, rate_b)
    return {
        "rate": rate,
        "overhead": min(ratios),
        "median": statistics.median(ratios),
        "best_off_s": best_off,
        "best_s": best_rate,
        "forwards_per_s": WRITES / best_rate,
    }


def test_cluster_trace_sampling_overhead():
    run_once(None)  # warm up imports and allocator before timing
    results = [measure(rate) for rate in RATES]
    by_rate = {r["rate"]: r for r in results}

    baseline = min(r["best_off_s"] for r in results)
    rows = [["off", WRITES, f"{baseline * 1000:.1f}",
             f"{WRITES / baseline:,.0f}", "baseline", "baseline"]]
    for r in results:
        rows.append([
            f"{r['rate']:g}", WRITES, f"{r['best_s'] * 1000:.1f}",
            f"{r['forwards_per_s']:,.0f}",
            f"{(r['overhead'] - 1) * 100:+.1f}%",
            f"{(r['median'] - 1) * 100:+.1f}%",
        ])
    emit(format_table(
        f"Cross-shard trace propagation overhead ({WRITES} forwarded "
        f"writes, {BLOCKS} paired blocks per rate"
        f"{', quick' if QUICK else ''})",
        ["sample rate", "forwards", "best ms", "forwards/s",
         "overhead (clean)", "overhead (median)"],
        rows,
    ))

    with open(_JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "benchmark": "cluster_trace_overhead",
            "quick": QUICK,
            "writes": WRITES,
            "blocks": BLOCKS,
            "baseline_best_s": baseline,
            "rates": results,
        }, fh, indent=2)
        fh.write("\n")

    # The production configuration: 1% sampling within 5% of off.
    assert by_rate[0.01]["overhead"] < 1.05
    # Rate 0 pays one seeded CRC per message — also within noise.
    assert by_rate[0.0]["overhead"] < 1.05
    # Full tracing allocates spans and widens every forwarded envelope;
    # debugging mode, generous sanity bound only.
    assert by_rate[1.0]["overhead"] < 3.0


if __name__ == "__main__":  # pragma: no cover - CI smoke entry point
    test_cluster_trace_sampling_overhead()
    print(f"wrote {_JSON_PATH}")
