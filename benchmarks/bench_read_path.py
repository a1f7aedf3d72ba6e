"""Read-path cost: what does the versioned cache buy a read-heavy app?

The CQRS argument for subscriber-side views is that web workloads are
overwhelmingly reads: under a 99:1 read/write mix, an aggregate served
from the cache tier should be an order of magnitude cheaper than
recomputing it from the base rows on every request — *without* giving
up freshness, because invalidation rides the replication stream itself
(per-key version watermarks, bumped in the apply path).

One seeded dataset, two variants of the same 99:1 mix:

- **direct** — every read recomputes the aggregate from a full scan of
  the subscriber's base rows (what an app without views would do);
- **cached** — every read goes through ``ViewManager.read`` (cache-aside
  over the KV tier, write-through invalidation from the apply path).

Every cached read is also checked against the expected aggregate the
bench maintains itself: with the subscriber drained after each write, a
single stale read is an INV_VIEW violation and fails the run.

Results land in ``BENCH_read.json`` at the repo root; set
``REPRO_BENCH_QUICK=1`` for the small workload.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict

from benchmarks.common import emit, format_table

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
#: Rows seeded before the mix starts.
ROWS = 200 if QUICK else 400
#: Total operations in the 99:1 mix (1% of these are writes).
OPERATIONS = 1000 if QUICK else 10_000

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_read.json")


def build_pipeline():
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike
    from repro.databases.relational import PostgresLike
    from repro.orm import Field, Model
    from repro.views import CountView, SumView

    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"),
                      delivery_mode="causal")

    @pub.model(publish=["name", "score"], name="Doc")
    class Doc(Model):
        name = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(
        subscribe={"from": "pub", "fields": ["name", "score"],
                   "mode": "causal"},
        name="Doc",
    )
    class SubDoc(Model):
        name = Field(str)
        score = Field(int, default=0)

    views = sub.enable_views()
    views.declare(CountView("docs", "Doc"))
    views.declare(SumView("total", "Doc", "score"))
    return eco, pub, sub, Doc


def run_mix(read) -> Dict[str, Any]:
    """One 99:1 mix over a fresh pipeline; ``read(sub)`` is the variant
    under test and must return the current sum-of-scores."""
    eco, pub, sub, doc_cls = build_pipeline()
    docs = []
    expected = 0
    with pub.controller():
        for i in range(ROWS):
            docs.append(doc_cls.create(name=f"doc-{i}", score=i))
            expected += i
    sub.subscriber.drain()

    reads = writes = stale = 0
    read_time = 0.0
    started = time.perf_counter()
    for step in range(OPERATIONS):
        if step % 100 == 99:
            doc = docs[step % ROWS]
            with pub.controller():
                doc.score += 10
                doc.save()
            sub.subscriber.drain()
            expected += 10
            writes += 1
            continue
        t0 = time.perf_counter()
        value = read(sub)
        read_time += time.perf_counter() - t0
        reads += 1
        if value != expected:
            stale += 1
    elapsed = time.perf_counter() - started
    return {
        "reads": reads,
        "writes": writes,
        "stale_reads": stale,
        "elapsed_s": elapsed,
        "read_time_s": read_time,
        "read_us": read_time / reads * 1e6,
        "cache": sub.views.cache.stats(),
    }


def direct_read(sub) -> int:
    """What an app without views pays per request: a full base-row scan
    through the engine, summed on the way out."""
    mapper = sub.registry.get("Doc").__mapper__
    return sum(row.get("score") or 0 for row in mapper._do_where({}, None, None))


def cached_read(sub) -> int:
    return sub.views.read("total")


def test_read_path_speedup():
    """Cached aggregate reads are >= 10x cheaper than direct engine
    recomputation under the 99:1 mix, with zero stale reads."""
    direct = run_mix(direct_read)
    cached = run_mix(cached_read)
    speedup = direct["read_us"] / cached["read_us"]
    hit_rate = cached["cache"]["hits"] / max(1, cached["reads"])

    emit(format_table(
        f"Read path: 99:1 mix over {ROWS} rows, {OPERATIONS} operations"
        f"{' (quick)' if QUICK else ''}",
        ["variant", "reads", "writes", "us/read", "stale reads"],
        [["direct scan", direct["reads"], direct["writes"],
          f"{direct['read_us']:.2f}", direct["stale_reads"]],
         ["cached view", cached["reads"], cached["writes"],
          f"{cached['read_us']:.2f}", cached["stale_reads"]]],
    ) + [
        f"speedup (direct/cached): {speedup:.1f}x",
        f"cache hit rate: {hit_rate:.3f} "
        f"(hits={cached['cache']['hits']} misses={cached['cache']['misses']} "
        f"invalidations={cached['cache']['invalidations']})",
    ])

    with open(_JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "benchmark": "read_path",
            "quick": QUICK,
            "rows": ROWS,
            "operations": OPERATIONS,
            "read_write_ratio": "99:1",
            "direct": direct,
            "cached": cached,
            "speedup": speedup,
            "cache_hit_rate": hit_rate,
        }, fh, indent=2)
        fh.write("\n")

    # Freshness is non-negotiable: a stale cached read breaks INV_VIEW.
    assert direct["stale_reads"] == 0
    assert cached["stale_reads"] == 0, (
        f"{cached['stale_reads']} cached reads were staler than an "
        "already-applied write"
    )
    # The point of the cache tier: an order of magnitude per read.
    assert speedup >= 10, (
        f"cached reads only {speedup:.1f}x faster than direct scans"
    )
    # The apply path writes rows and aggregates through: reads hit.
    assert hit_rate > 0.9


if __name__ == "__main__":  # pragma: no cover - CI smoke entry point
    test_read_path_speedup()
    print(f"wrote {_JSON_PATH}")
