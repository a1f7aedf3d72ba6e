"""``python -m repro watch`` — live replication-health console.

Drives a small two-service workload (sampled tracing on, a tight demo
SLO armed) and renders per-link lag, throughput and SLO status once per
interval. ``--once`` runs a single round and exits — the CI smoke mode.

``--cluster`` switches to the federated view: the 2-shard demo runs in
worker OS processes and every round pulls ``health_report`` +
``metrics_dump`` through the control plane, rendering one merged
console (or Prometheus/JSON exposition) in which every series carries
its ``shard`` label.

Flags:
    --once            one round, then exit
    --rounds N        stop after N rounds (0 = until interrupted)
    --interval S      seconds between rounds (default 1.0)
    --writes N        publisher writes per round (default 20)
    --prometheus      also print the Prometheus exposition each round
    --json            print the JSON exposition instead of the console view
    --cluster         federate the 2-shard demo instead of one process
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Tuple

from repro.core.tools import flags
from repro.runtime.monitor.export import to_json, to_prometheus
from repro.runtime.monitor.lag import LinkSLO


def _build_demo_ecosystem() -> Tuple[Any, Any, Any, type]:
    import tempfile

    from repro.apps import build_replicated_pair
    from repro.core import Ecosystem
    from repro.runtime.flow import FlowConfig
    from repro.views import CountView, SumView

    eco = Ecosystem()
    # Production posture: always-on tracing, every message sampled (the
    # demo workload is tiny), exemplars armed by the SLO below. Flow
    # control is on with an explicit capacity so the ``flow.*`` gauges
    # and counters are live in every exposition round, and durability
    # WALs into a throwaway dir so the ``durability.*`` row is live too.
    eco.enable_tracing(sample_rate=1.0)
    eco.enable_flow(FlowConfig(capacity=256))
    eco.enable_durability(
        data_dir=tempfile.mkdtemp(prefix="repro-watch-"), snapshot_every=256
    )
    eco.monitor.set_slo("pub", "sub", LinkSLO(p99_lag=0.5, stall_after=5.0))
    eco, pub, sub, Item = build_replicated_pair(
        eco, {"name": str, "score": int}, "Item"
    )

    # Read path on: the views/cache row below then shows live counters.
    views = sub.enable_views()
    views.declare(CountView("item_count", "Item"))
    views.declare(SumView("score_total", "Item", "score"))

    # CDC front-end on: a slice of each round's writes bypasses the ORM
    # through the transactional outbox, so the cdc row is live too.
    pub.enable_outbox()

    return eco, pub, sub, Item


def _sum(snapshot: Dict[str, Any], prefix: str, suffix: str) -> int:
    """Total of the registry's ``<prefix>…<suffix>`` counters/gauges."""
    return sum(
        int(value)
        for name, value in snapshot.items()
        if name.startswith(prefix) and name.endswith(suffix)
        and isinstance(value, (int, float))
    )


def _render_round(eco: Any, round_no: int) -> List[str]:
    report = eco.monitor.health()
    snapshot = eco.metrics.snapshot()
    lines = [f"== replication health · round {round_no} =="]
    for link in report.links:
        lines.append("  " + link.summary_line())
    lines.append(
        "  throughput: "
        f"routed={eco.metrics.value('broker.routed')} "
        f"dropped={eco.metrics.value('broker.dropped')} "
        f"applied={_sum(snapshot, 'subscriber.', '.processed')}"
    )
    batch_counts = sum(
        value["count"]
        for name, value in snapshot.items()
        if name.startswith("flow.") and name.endswith(".batch_size")
        and isinstance(value, dict)
    )
    lines.append(
        "  flow: "
        f"credits={_sum(snapshot, 'flow.', '.credits')} "
        f"shed={_sum(snapshot, 'flow.', '.shed')} "
        f"coalesced={_sum(snapshot, 'flow.', '.coalesced')} "
        f"batches={int(batch_counts)}"
    )
    lines.append(
        "  durability: "
        f"appends={_sum(snapshot, 'durability.', 'wal.appends')} "
        f"flushes={_sum(snapshot, 'durability.', 'wal.flushes')} "
        f"fsyncs={_sum(snapshot, 'durability.', 'wal.fsyncs')} "
        f"segments={_sum(snapshot, 'durability.', 'wal.segments')} "
        f"bytes={_sum(snapshot, 'durability.', 'wal.bytes')} "
        f"snapshots={_sum(snapshot, 'durability.', 'snapshot.count')}"
    )
    lines.append(
        "  views: "
        f"applied={_sum(snapshot, 'views.', '.applied')} "
        f"folds={_sum(snapshot, 'views.', '.folds')} "
        f"rebuilds={_sum(snapshot, 'views.', '.rebuilds')}"
    )
    lines.append(
        "  cache: "
        f"hits={_sum(snapshot, 'cache.', '.hits')} "
        f"misses={_sum(snapshot, 'cache.', '.misses')} "
        f"invalidations={_sum(snapshot, 'cache.', '.invalidations')} "
        f"write_through={_sum(snapshot, 'cache.', '.write_throughs')}"
    )
    lines.append(
        "  cdc: "
        f"appended={_sum(snapshot, 'cdc.', '.appended')} "
        f"published={_sum(snapshot, 'cdc.', '.published')} "
        f"outbox_lag={eco.cdc.backlog()}"
    )
    anomalies = eco.recorder.anomalies()
    lines.append(
        f"  flight recorder: {len(eco.recorder.traces())} traces, "
        f"{len(eco.recorder.events())} events, {len(anomalies)} anomalies"
    )
    return lines


def _render_cluster_round(
    round_no: int, health: Dict[str, Any], metrics: Dict[str, Any]
) -> List[str]:
    lines = [f"== cluster health · round {round_no} =="]
    for shard in sorted(health["shards"]):
        state = health["shards"][shard]
        lines.append(
            f"  [{shard}] idle={bool(state['idle'])} "
            f"backlog={state['backlog']} in_flight={state['in_flight']} "
            f"forwarded={state['sent']} delivered={state['received']}"
        )
        for link in (state.get("health") or {}).get("links", []):
            lines.append(
                f"  [{shard}] {link['publisher']} -> {link['subscriber']}: "
                f"{link['status']} "
                f"(p50={link['p50'] * 1000:.1f}ms "
                f"p99={link['p99'] * 1000:.1f}ms "
                f"samples={link['samples']})"
            )
    for shard in sorted(metrics["shards"]):
        snapshot = metrics["shards"][shard]["metrics"]
        lines.append(
            f"  [{shard}] throughput: "
            f"routed={snapshot.get('broker.routed', 0)} "
            f"dropped={snapshot.get('broker.dropped', 0)} "
            f"applied={_sum(snapshot, 'subscriber.', '.processed')}"
        )
    for shard in sorted(set(health["missing"]) | set(metrics["missing"])):
        lines.append(f"  [{shard}] UNREACHABLE (no report this round)")
    return lines


def _cluster_watch(
    rounds: int, interval: float, writes: int,
    as_json: bool, with_prometheus: bool,
) -> int:
    """Drive the 2-shard demo and render the federated view each round.

    The parent never touches a shard's registry directly: every number
    printed here crossed the control plane as a ``health_report`` /
    ``metrics_dump`` federation op, shard label attached at the source.
    """
    from functools import partial

    from repro.runtime.transport.demo import (
        DEMO_PLACEMENT,
        build_demo_ecosystem,
        demo_scenario,
    )
    from repro.runtime.transport.shard import ShardRunner

    runner = ShardRunner(
        partial(build_demo_ecosystem, trace_sample=1.0), DEMO_PLACEMENT,
        scenario=partial(demo_scenario, operations=writes),
    )
    round_no = 0
    try:
        runner.start()
        while True:
            round_no += 1
            runner.run_scenarios()
            runner.quiesce()
            health = runner.cluster_request("health_report")
            metrics = runner.cluster_request("metrics_dump")
            if as_json:
                print(json.dumps(
                    {"round": round_no, "health": health,
                     "metrics": {
                         shard: entry["metrics"]
                         for shard, entry in metrics["shards"].items()
                     }},
                    indent=2, sort_keys=True,
                ))
            else:
                for line in _render_cluster_round(round_no, health, metrics):
                    print(line)
            if with_prometheus:
                for shard in sorted(metrics["shards"]):
                    print(metrics["shards"][shard]["prometheus"], end="")
            if rounds and round_no >= rounds:
                break
            time.sleep(interval)
        runner.finish()
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    except BrokenPipeError:  # pragma: no cover - `watch ... | head` exit
        return 0
    finally:
        runner.close()


def watch_command(args: List[str]) -> int:
    opts = flags(
        args, rounds=1 if "--once" in args else 0, interval=1.0, writes=20
    )
    rounds, interval, writes = opts["rounds"], opts["interval"], opts["writes"]
    as_json = "--json" in args
    with_prometheus = "--prometheus" in args

    if "--cluster" in args:
        return _cluster_watch(
            rounds, interval, writes, as_json, with_prometheus
        )

    eco, pub, sub, item_cls = _build_demo_ecosystem()
    items: List[Any] = []
    round_no = 0
    try:
        while True:
            round_no += 1
            raw = pub.raw_session()
            with pub.controller():
                for i in range(writes):
                    if items and i % 2:
                        target = items[i % len(items)]
                        target.score += 1
                        target.save()
                    else:
                        items.append(
                            item_cls.create(name=f"item-{round_no}-{i}", score=0)
                        )
            # A few raw writes per round keep the cdc row live.
            for i in range(max(1, writes // 5)):
                raw.insert(
                    "Item", {"name": f"raw-{round_no}-{i}", "score": 0}
                )
            eco.cdc.poll_all()
            sub.subscriber.drain()
            # Exercise the read path so the cache row has live numbers.
            sub.views.read("item_count")
            sub.views.read("score_total")

            if as_json:
                print(to_json(eco.metrics, monitor=eco.monitor))
            else:
                for line in _render_round(eco, round_no):
                    print(line)
            if with_prometheus:
                print(to_prometheus(eco.metrics), end="")

            if rounds and round_no >= rounds:
                break
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    except BrokenPipeError:  # pragma: no cover - `watch ... | head` exit
        return 0

    report = eco.monitor.health()
    if not report.links:
        print("watch: no replication links discovered")
        return 1
    return 0
