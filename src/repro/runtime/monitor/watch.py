"""``python -m repro watch`` — live replication-health console.

Drives a small demo workload (sampled tracing on, a tight demo SLO
armed) and prints one observability report per interval: every shard's
``ClusterPlane.snapshot`` — idle/forward state, per-link lag and SLO
status, the metric rows and the flight-recorder counts. ``--once`` runs
a single round and exits — the CI smoke mode.

The report has one shape wherever it comes from. By default the
workload runs in this process behind a peerless plane named ``solo``;
``--cluster`` runs the 2-shard demo in worker OS processes and pulls the
same report through the control plane. Every row is tagged with its
shard, and every Prometheus series carries a ``shard`` label.

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

import itertools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.core.tools import flags
from repro.runtime.monitor.cluster import ClusterPlane
from repro.runtime.monitor.export import to_json, to_prometheus
from repro.runtime.monitor.lag import LinkSLO, format_link

#: Console metric rows: ``(row, ((label, prefix, suffix), ...))``; each
#: cell totals the shard's ``<prefix>…<suffix>`` instruments (a
#: histogram counts its samples).
ROWS = (
    ("throughput", (
        ("routed", "broker.routed", ""), ("dropped", "broker.dropped", ""),
        ("applied", "subscriber.", ".processed"),
    )),
    ("flow", (
        ("credits", "flow.", ".credits"), ("shed", "flow.", ".shed"),
        ("coalesced", "flow.", ".coalesced"),
        ("batches", "flow.", ".batch_size"),
    )),
    ("durability", tuple(
        (label, "durability.", suffix) for label, suffix in (
            ("appends", "wal.appends"), ("flushes", "wal.flushes"),
            ("fsyncs", "wal.fsyncs"), ("segments", "wal.segments"),
            ("bytes", "wal.bytes"), ("snapshots", "snapshot.count"),
        )
    )),
    ("views", tuple(
        (label, "views.", "." + label)
        for label in ("applied", "folds", "rebuilds")
    )),
    ("cache", (
        ("hits", "cache.", ".hits"), ("misses", "cache.", ".misses"),
        ("invalidations", "cache.", ".invalidations"),
        ("write_through", "cache.", ".write_throughs"),
    )),
    ("cdc", (
        ("appended", "cdc.", ".appended"), ("published", "cdc.", ".published"),
    )),
)


def _sum(metrics: Dict[str, Any], prefix: str, suffix: str) -> int:
    """Total of the snapshot's ``<prefix>…<suffix>`` instruments."""
    return sum(
        int(value["count"] if isinstance(value, dict) else value)
        for name, value in metrics.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def render_console(round_no: int, report: Dict[str, Any]) -> List[str]:
    """One round of the console: the same rows for every shard, each
    tagged ``[shard]``, then an ``UNREACHABLE`` line per missing shard."""
    lines = [f"== replication health · round {round_no} =="]
    for name in sorted(report["shards"]):
        shard = report["shards"][name]
        tag = f"  [{name}] "
        lines.append(
            f"{tag}idle={bool(shard['idle'])} backlog={shard['backlog']} "
            f"in_flight={shard['in_flight']} outbox_lag={shard['outbox']} "
            f"forwarded={shard['sent']} delivered={shard['received']}"
        )
        lines += [tag + format_link(link) for link in shard["health"]["links"]]
        for row, cells in ROWS:
            lines.append(f"{tag}{row}: " + " ".join(
                f"{label}={_sum(shard['metrics'], prefix, suffix)}"
                for label, prefix, suffix in cells
            ))
        counts = shard["recorder"]
        lines.append(
            f"{tag}flight recorder: {counts['traces']} traces, "
            f"{counts['events']} events, {counts['anomalies']} anomalies"
        )
    for name in sorted(report["missing"]):
        lines.append(f"  [{name}] UNREACHABLE (no report this round)")
    return lines


def render_prometheus(report: Dict[str, Any]) -> str:
    """Every shard's metrics, each series labelled with its shard."""
    return "".join(
        to_prometheus(report["shards"][name]["metrics"], {"shard": name})
        for name in sorted(report["shards"])
    )


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


@contextmanager
def _local_rounds(writes: int) -> Iterator[Callable[[int], Dict[str, Any]]]:
    """This process runs the demo; a peerless plane reports on it."""
    eco, pub, sub, item_cls = _build_demo_ecosystem()
    plane = ClusterPlane(eco, "solo").install()
    items: List[Any] = []

    def one_round(round_no: int) -> Dict[str, Any]:
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
        raw = pub.raw_session()
        for i in range(max(1, writes // 5)):
            raw.insert("Item", {"name": f"raw-{round_no}-{i}", "score": 0})
        eco.cdc.poll_all()
        sub.subscriber.drain()
        # Exercise the read path so the cache row has live numbers.
        sub.views.read("item_count")
        sub.views.read("score_total")
        return plane.snapshot()

    yield one_round


@contextmanager
def _cluster_rounds(writes: int) -> Iterator[Callable[[int], Dict[str, Any]]]:
    """The 2-shard demo runs in worker processes; the parent never
    touches a shard's registry — every number crossed the control plane
    as the federated ``snapshot`` op."""
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

    def one_round(round_no: int) -> Dict[str, Any]:
        runner.run_scenarios()
        runner.quiesce()
        return runner.cluster_request("snapshot")

    try:
        runner.start()
        yield one_round
        runner.finish()
    finally:
        runner.close()


def watch_command(args: List[str]) -> int:
    opts = flags(
        args, rounds=1 if "--once" in args else 0, interval=1.0, writes=20
    )
    rounds, interval = opts["rounds"], opts["interval"]
    source = _cluster_rounds if "--cluster" in args else _local_rounds
    report: Dict[str, Any] = {"shards": {}}
    try:
        with source(opts["writes"]) as next_report:
            for round_no in itertools.count(1):
                report = next_report(round_no)
                if "--json" in args:
                    print(to_json(dict(report, round=round_no)))
                else:
                    print("\n".join(render_console(round_no, report)))
                if "--prometheus" in args:
                    print(render_prometheus(report), end="")
                if rounds and round_no >= rounds:
                    break
                time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    except BrokenPipeError:  # pragma: no cover - `watch ... | head` exit
        return 0

    if not any(s["health"]["links"] for s in report["shards"].values()):
        print("watch: no replication links discovered")
        return 1
    return 0
