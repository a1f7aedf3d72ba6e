"""Flow-control apply throughput: batching + coalescing vs. batches
of one.

A hot-object update workload (a few objects absorbing many writes in
per-object bursts — the shape §4.4's overload anecdotes describe) is
pre-filled into a causal subscriber queue, then the drain is timed
three ways. Bursts are object-major because causal sessions chain each
write to the session's previous write: interleaving objects makes every
message depend on its neighbour's object and the union-safety scan
rightly refuses to coalesce any of them.

- **disabled** — flow control off, so every batch is one message: one
  pop, one dependency check, one engine write per message;
- **batched** — ``pop_many`` + ``process_batch`` group commit, but no
  coalescing: same message count, one engine transaction per batch;
- **batched+coalesced** — the full subsystem: queued same-object writes
  collapse before the drain even starts, and the survivors apply in
  group-committed batches.

Throughput is *publisher updates replicated per second* (every variant
must converge each hot object to the same final score, so the work
delivered is identical). The acceptance bar: batched+coalesced ≥ 2x
disabled. Results also land in ``BENCH_flow.json`` at the repo root so
CI can archive them; set ``REPRO_BENCH_QUICK=1`` for the small workload.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.common import emit, format_table
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
HOT_OBJECTS = 16
ROUNDS = 25 if QUICK else 150  # updates per hot object
UPDATES = HOT_OBJECTS * ROUNDS

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_flow.json")

VARIANTS = [
    ("disabled", None),
    ("batched", {"coalesce": False}),
    ("batched+coalesced", {"coalesce": True}),
]


def _build(flow_kwargs):
    eco = Ecosystem()
    if flow_kwargs is not None:
        from repro.runtime.flow import FlowConfig

        eco.enable_flow(FlowConfig(batch_max=16, **flow_kwargs))
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name", "score"], name="Item")
    class Item(Model):
        name = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name", "score"]},
               name="Item")
    class SubItem(Model):
        name = Field(str)
        score = Field(int, default=0)

    items = []
    with pub.controller():
        for i in range(HOT_OBJECTS):
            items.append(Item.create(name=f"hot-{i}", score=0))
    sub.subscriber.drain()
    return eco, pub, sub, items, SubItem


def _run_variant(name, flow_kwargs):
    eco, pub, sub, items, SubItem = _build(flow_kwargs)
    with pub.controller():
        for item in items:
            for _ in range(ROUNDS):
                item.score += 1
                item.save()
    queued = len(sub.subscriber.queue)
    start = time.perf_counter()
    applied = sub.subscriber.drain()
    elapsed = time.perf_counter() - start
    for item in items:
        row = SubItem.__mapper__.find(item.id)
        assert row is not None and row["score"] == ROUNDS, (
            f"{name}: hot object {item.id} did not converge"
        )
    assert not len(sub.subscriber.queue)
    return {
        "variant": name,
        "updates": UPDATES,
        "queued_at_drain": queued,
        "messages_applied": applied,
        "drain_s": elapsed,
        "updates_per_s": UPDATES / elapsed if elapsed else float("inf"),
    }


def test_batched_coalesced_apply_throughput():
    """The full subsystem must replicate the same update stream at
    >= 2x the single-message pipeline's rate."""
    results = [_run_variant(name, kwargs) for name, kwargs in VARIANTS]
    by_name = {r["variant"]: r for r in results}
    speedup = (by_name["batched+coalesced"]["updates_per_s"]
               / by_name["disabled"]["updates_per_s"])

    emit(format_table(
        f"Flow-control apply throughput ({HOT_OBJECTS} hot objects x "
        f"{ROUNDS} update rounds{', quick' if QUICK else ''})",
        ["variant", "queued", "applied msgs", "drain ms", "updates/s"],
        [[r["variant"], r["queued_at_drain"], r["messages_applied"],
          f"{r['drain_s'] * 1000:.1f}", f"{r['updates_per_s']:,.0f}"]
         for r in results],
    ) + [f"batched+coalesced vs disabled: {speedup:.1f}x"])

    with open(_JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "benchmark": "flow_throughput",
            "quick": QUICK,
            "hot_objects": HOT_OBJECTS,
            "rounds": ROUNDS,
            "variants": results,
            "speedup_batched_coalesced_vs_disabled": speedup,
        }, fh, indent=2)
        fh.write("\n")

    # Coalescing collapses the hot-object backlog to ~one message per
    # object; batching group-commits what's left.
    assert by_name["batched+coalesced"]["queued_at_drain"] <= 2 * HOT_OBJECTS
    assert by_name["disabled"]["queued_at_drain"] == UPDATES
    assert speedup >= 2.0, f"only {speedup:.2f}x over batches of one"


if __name__ == "__main__":  # pragma: no cover - CI smoke entry point
    test_batched_coalesced_apply_throughput()
    print(f"wrote {_JSON_PATH}")
