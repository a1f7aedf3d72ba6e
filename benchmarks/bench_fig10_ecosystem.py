"""End-to-end throughput of the full Fig 10 Crowdtap ecosystem: nine
services, threaded worker fleet, realistic request mix. Measures
requests/s at the main app and the fan-out amplification (messages
processed across all subscribers per request)."""

from __future__ import annotations

import random
import time

from benchmarks.common import emit, format_metrics, format_table
from repro.apps.crowdtap import build_crowdtap_ecosystem
from repro.runtime.workers import WorkerFleet

REQUESTS = 300


def run_ecosystem(workers_per_service: int):
    ct = build_crowdtap_ecosystem()
    rng = random.Random(9)
    members = [ct.signup(f"m{i}", f"m{i}@x") for i in range(10)]
    brands = [ct.add_brand(f"b{i}", f"brand number {i}") for i in range(4)]
    ct.sync()

    with WorkerFleet(ct.eco, workers=workers_per_service,
                     wait_timeout=0.5) as fleet:
        start = time.perf_counter()
        for step in range(REQUESTS):
            member = rng.choice(members)
            roll = rng.random()
            if roll < 0.5:
                ct.submit_action(member, rng.choice(brands), "review",
                                 text=f"req {step}")
            elif roll < 0.8:
                ct.submit_action(member, rng.choice(brands), "share")
            else:
                ct.crawl_profile(member, likes=[f"topic{step % 5}"])
        publish_elapsed = time.perf_counter() - start
        assert fleet.wait_until_idle(timeout=60)
        total_elapsed = time.perf_counter() - start

    processed = sum(
        ct.eco.metrics.value(f"subscriber.{name}.processed")
        for name in ct.eco.services
    )
    published = sum(
        service.publisher.messages_published
        for service in ct.eco.services.values()
    )
    return {
        "publish_rps": REQUESTS / publish_elapsed,
        "end_to_end_rps": REQUESTS / total_elapsed,
        "published": published,
        "processed": processed,
        "amplification": processed / REQUESTS,
        "metrics": ct.eco.metrics,
    }


def test_fig10_ecosystem_throughput(benchmark):
    rows = []
    results = {}
    for workers in (1, 4):
        result = run_ecosystem(workers)
        results[workers] = result
        rows.append([
            workers,
            f"{result['publish_rps']:,.0f}",
            f"{result['end_to_end_rps']:,.0f}",
            result["published"],
            result["processed"],
            f"{result['amplification']:.1f}x",
        ])
    emit(format_table(
        "Fig 10 ecosystem under load (300 requests, 9 services)",
        ["workers/service", "publish req/s", "end-to-end req/s",
         "msgs published", "msgs processed", "fan-out per request"],
        rows,
    ))
    emit(format_metrics(
        "Broker counters, 4-worker run (MetricsRegistry snapshot)",
        results[4]["metrics"], prefix="broker.",
    ))
    for result in results.values():
        # Each request publishes 1-3 messages that fan out to multiple
        # subscribers: amplification well above 1.
        assert result["amplification"] > 2.0
        assert result["processed"] >= result["published"]
        assert result["end_to_end_rps"] > 50

    benchmark(lambda: run_ecosystem(2))
