"""``python -m repro flow --demo`` — the flow-control subsystem live.

A weak-mode publisher floods a small bounded queue:

1. **Graduated backpressure**: admission credits drain as the queue
   fills past the high watermark; once they hit zero, weak publishes
   are *shed* instead of letting the queue grow into the §4.4 kill
   cliff. The queue must end the flood alive (not decommissioned).
2. **Recovery**: draining the backlog refills the credits (hysteresis:
   refill only once depth falls under the low watermark) and the
   admission state returns to ``open``.
3. **Coalescing + batched pop**: a hot-object update storm collapses
   into a handful of merged messages, which the subscriber pops in
   batches (``pop_many``) and applies one at a time
   (``process_batch``).

Exit 0 iff messages were shed, updates coalesced, every surviving
message applied, and the queue was never decommissioned.
"""

from __future__ import annotations

from typing import List


def flow_command(args: List[str]) -> int:
    from repro.apps import build_replicated_pair
    from repro.core import Ecosystem
    from repro.core.tools import flags
    from repro.runtime.flow import FlowConfig

    opts = flags(args, writes=200, queue_limit=64)
    writes, queue_limit = opts["writes"], opts["queue_limit"]
    eco = Ecosystem(queue_limit=queue_limit)
    eco.enable_flow(FlowConfig(batch_max=8))
    eco, pub, sub, Item = build_replicated_pair(
        eco, {"name": str, "score": int}, "Item", mode="weak"
    )
    SubItem = sub.registry["Item"]
    queue = sub.subscriber.queue
    flow = queue.flow

    print(
        f"flow demo: queue_limit={queue_limit} "
        f"(credits high={flow.high} low={flow.low}), {writes} flood writes"
    )

    # Phase 1: flood with distinct creates, nobody draining.
    with pub.controller():
        for i in range(writes):
            Item.create(name=f"flood-{i}", score=0)
    shed = eco.metrics.value("flow.sub.shed")
    print(
        f"after flood: queued={len(queue)} shed={shed} "
        f"state={flow.state} credits={flow.credits} "
        f"decommissioned={queue.decommissioned}"
    )
    for link in eco.monitor.health().links:
        print("  " + link.summary_line())

    survivors = len(queue)
    drained = sub.subscriber.drain()
    print(f"drained {drained} messages")

    # Phase 2: hot-object update storm (coalescing + batched pop).
    hot = []
    with pub.controller():
        for i in range(4):
            hot.append(Item.create(name=f"hot-{i}", score=0))
    rounds = 25
    with pub.controller():
        for r in range(rounds):
            for item in hot:
                item.score += 1
                item.save()
    coalesced = eco.metrics.value("flow.sub.coalesced")
    print(
        f"after update storm: {rounds * len(hot)} updates -> "
        f"queued={len(queue)} coalesced={coalesced} state={flow.state}"
    )
    drained += sub.subscriber.drain()

    print()
    print("flow.* metrics:")
    for name, value in eco.metrics.snapshot("flow.").items():
        rendered = (
            f"count={value['count']} mean={value['mean']:.1f}"
            if isinstance(value, dict)
            else str(value)
        )
        print(f"  {name:<32} {rendered}")

    batches = eco.metrics.snapshot("flow.")["flow.sub.batch_size"]["count"]
    replicated = [SubItem.__mapper__.find(item.id) for item in hot]
    converged = all(
        row is not None and row["score"] == rounds for row in replicated
    )
    failures = []
    if shed <= 0:
        failures.append("no weak publishes were shed under pressure")
    if queue.decommissioned:
        failures.append("queue decommissioned — shedding failed to prevent the kill")
    if coalesced <= 0:
        failures.append("hot-object updates did not coalesce")
    if batches <= 0:
        failures.append("no batched pops recorded")
    if len(queue):
        failures.append(f"{len(queue)} messages left queued")
    if not converged:
        failures.append("hot objects did not converge to the final score")
    if failures:
        for failure in failures:
            print(f"FAILED: {failure}")
        return 1
    print(
        f"OK: shed {shed} under pressure (queue survived), applied "
        f"{survivors} flood survivors, coalesced {coalesced} hot updates, "
        f"{batches} batched pops, replicas converged"
    )
    return 0
