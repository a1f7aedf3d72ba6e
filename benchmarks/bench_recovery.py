"""Recovery-time measurements for the §6.5 failure scenarios:

- message loss deadlocking a causal subscriber, unblocked by rebootstrap
- queue-overflow decommission followed by partial bootstrap
- publisher version-store death (generation bump) cost
"""

from __future__ import annotations

import time

from benchmarks.common import emit, format_table
from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber

DATASET = 2000


def build(queue_limit=None):
    eco, pub, sub, Item = build_replicated_pair(
        Ecosystem(queue_limit=queue_limit), {"n": int}, "Item"
    )
    return eco, pub, Item, sub, sub.registry["Item"]


def scenario_message_loss():
    eco, pub, Item, sub, SubItem = build()
    items = [Item.create(n=i) for i in range(DATASET)]
    sub.subscriber.drain()
    eco.broker.drop_next(1)
    items[0].update(n=-1)        # lost
    for item in items[1:50]:
        item.update(n=-2)        # some fine, object deps independent
    items[0].update(n=-3)        # deadlocked behind the loss
    sub.subscriber.drain()
    stuck = len(sub.subscriber.queue)
    start = time.perf_counter()
    bootstrap_subscriber(sub)
    recovery = time.perf_counter() - start
    assert SubItem.find(items[0].id).n == -3
    return stuck, recovery


def scenario_queue_overflow():
    eco, pub, Item, sub, SubItem = build(queue_limit=100)
    items = [Item.create(n=i) for i in range(100)]
    sub.subscriber.drain()
    # Subscriber goes dark; traffic overflows the queue.
    for i in range(150):
        items[i % 100].update(n=i)
    assert sub.subscriber.queue.decommissioned
    start = time.perf_counter()
    bootstrap_subscriber(sub)
    recovery = time.perf_counter() - start
    assert SubItem.count() == 100
    return recovery


def scenario_generation_bump():
    eco, pub, Item, sub, SubItem = build()
    for i in range(200):
        Item.create(n=i)
    sub.subscriber.drain()
    for shard in pub.publisher_version_store.kv.shards:
        shard.crash()
    start = time.perf_counter()
    Item.create(n=-1)  # triggers transparent recovery
    publish_cost = time.perf_counter() - start
    sub.subscriber.drain()
    assert SubItem.count() == 201
    return publish_cost


def test_recovery_times(benchmark):
    stuck, loss_recovery = scenario_message_loss()
    overflow_recovery = scenario_queue_overflow()
    generation_cost = scenario_generation_bump()
    emit(format_table(
        "§6.5 recovery costs",
        ["scenario", "metric", "value"],
        [
            ["message loss (causal)", "messages deadlocked", stuck],
            ["message loss (causal)", "rebootstrap time ms",
             f"{loss_recovery * 1000:.1f}"],
            ["queue overflow", "partial bootstrap ms",
             f"{overflow_recovery * 1000:.1f}"],
            ["publisher store death", "first-publish-after ms",
             f"{generation_cost * 1000:.3f}"],
        ],
    ))
    assert stuck >= 1
    assert loss_recovery < 5.0
    assert overflow_recovery < 5.0
    assert generation_cost < 1.0

    benchmark(lambda: scenario_generation_bump())
