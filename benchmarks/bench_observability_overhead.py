"""Cost of the always-on health layer at production sampling rates.

The design target: the replication-health machinery (lag windows, the
flight-recorder sink, sampled tracing) must be cheap enough to leave on.
Head-based sampling makes the per-message cost a seeded CRC plus an
``is None`` check for unsampled messages, so a 1% rate should sit within
noise of tracing-off — that is the asserted bound. Full tracing (rate
1.0) is reported for scale but only sanity-bounded: it allocates spans
for every message and is a debugging mode, not a production default.
"""

from __future__ import annotations

import gc
import statistics
import time

from benchmarks.common import emit, format_table
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model

WRITES = 1500
BLOCKS = 6
RATES = [0.0, 0.01, 1.0]  # each compared against tracing never enabled


def build():
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


def run_once(rate) -> float:
    """Wall-clock of one publish+drain workload at one sampling rate."""
    eco, pub, sub, User = build()
    if rate is not None:
        eco.enable_tracing(sample_rate=rate, seed=11)
    # GC pauses landing inside one configuration's window and not
    # another's are the dominant noise source at this scale; collect
    # up front and keep the collector out of the timed section.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        with pub.controller():
            for i in range(WRITES):
                User.create(name=f"u{i}", score=i)
        sub.subscriber.drain()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert eco.metrics.value("subscriber.sub.processed") == WRITES
    return elapsed


def measure(rate) -> dict:
    """Estimate one rate's overhead ratio against tracing-off.

    Wall-clock on a shared machine is contaminated by bursty exogenous
    load, so absolute times are meaningless across a session. Each
    *block* runs off/rate/rate/off back to back (load is ~constant
    inside a one-second window) and contributes the ratio of
    within-block minima. Exogenous bursts inflate whichever block they
    hit; the true tracing cost inflates every block. The minimum block
    ratio is therefore the least-contaminated estimate of the real
    overhead — it only stays above a bound if every block did.
    """
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
        "overhead": min(ratios),
        "median": statistics.median(ratios),
        "best_off": best_off,
        "best": best_rate,
    }


def test_one_percent_sampling_is_within_noise_of_off(benchmark):
    run_once(None)  # warm up imports and allocator before timing
    results = {rate: measure(rate) for rate in RATES}

    baseline = min(r["best_off"] for r in results.values())
    rows = [["off", WRITES, f"{baseline * 1000:.1f}",
             f"{WRITES / baseline:,.0f}", "baseline", "baseline"]]
    for rate in RATES:
        r = results[rate]
        rows.append([
            f"{rate:g}", WRITES, f"{r['best'] * 1000:.1f}",
            f"{WRITES / r['best']:,.0f}",
            f"{(r['overhead'] - 1) * 100:+.1f}%",
            f"{(r['median'] - 1) * 100:+.1f}%",
        ])
    emit(format_table(
        f"Observability overhead vs sampling rate ({WRITES} writes, "
        f"{BLOCKS} paired blocks per rate)",
        ["sample rate", "writes", "best ms", "writes/s",
         "overhead (clean)", "overhead (median)"],
        rows,
    ))

    # The production configuration: 1% sampling within 5% of tracing-off.
    assert results[0.01]["overhead"] < 1.05
    # Rate 0 must also be free: the whole cost is one CRC per message.
    assert results[0.0]["overhead"] < 1.05
    # Full tracing allocates spans per message; generous sanity bound.
    assert results[1.0]["overhead"] < 3.0

    benchmark(lambda: run_once(0.01))
