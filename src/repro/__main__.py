"""CLI entry point: ``python -m repro <command>``.

Commands:
    demo quickstart|social|crowdtap|migration|analytics|fig8
        run one of the example scenarios
    topology social|crowdtap [--dot]
        print the service topology (optionally GraphViz DOT)
    metrics [--trace]
        run a small publisher->subscriber scenario and print the
        MetricsRegistry snapshot; with --trace, run it with the WAL on
        (fsync off, scratch dir) and also print the per-stage spans of
        one end-to-end traced message, wal.append/wal.flush included
    conformance [--seeds N] [--mode causal|global|weak] [--crash]
                [--seed K --faults F --generation-bump --queue-limit Q]
        deterministic delivery-semantics conformance: directed race
        scenarios plus a seeded-schedule sweep over the real
        queue/subscriber/version-store code; with --seed K, replay one
        schedule and dump its violations and trace tail
    watch [--once] [--rounds N] [--interval S] [--writes N]
          [--prometheus] [--json] [--cluster]
        live replication-health console over a demo two-service
        workload: per-link p50/p99 lag, SLO status, throughput and
        flight-recorder counts each round; --once runs a single round
        (the CI smoke mode), --prometheus/--json switch the exposition;
        --cluster drives the 2-shard demo instead and renders the
        federated view — every series labeled with its shard, health
        merged across both OS processes through the control plane
    trace [<uid>] [--operations N] [--timeout S]
        run the 2-shard demo with every message sampled and print one
        assembled cross-shard trace (the given uid, else the first uid
        both shards hold spans for): publisher-side intercept/route/
        forward and subscriber-side dwell/apply spans from different
        OS processes on one normalized timeline, with per-hop transit
        latency and the critical path; exits 0 iff at least two shards
        contributed spans
    flow --demo [--writes N] [--queue-limit Q]
        flow-control subsystem demo: flood a small bounded queue and
        watch graduated backpressure shed weak publishes before the
        kill cliff, then a hot-object update storm coalesce and drain
        through batched group-committed applies; exits 0 iff shedding
        and coalescing both happened and the queue survived
    views --demo [--writes N]
        subscriber read-path demo: derived read models (count, sum,
        top-k, per-author feeds) maintained incrementally in the apply
        path behind a versioned cache; checks every aggregate against
        full recomputation (INV_VIEW), exercises miss/hit/invalidate,
        and kill-and-restarts to prove the restore rebuild is exact
    shard --demo [--operations N] [--timeout S]
        process-sharded runtime demo: two worker processes each own
        half of a six-service social ecosystem; write messages bound
        for remote queues are forwarded through the broker seam, and
        every audit/repair rides control-plane envelopes over pipes;
        exits 0 iff all audits are digest-equal and the cross-shard
        targeted repair verifies
    recover --demo [--operations N] [--timeout S]
        durability subsystem demo: two shards WAL every state
        transition, one is kill -9'd mid-traffic, and a restart over
        the same data directory restores it from snapshot + WAL
        replay; exits 0 iff the restored mesh ends audit-clean
    saga --demo [--sagas N] [--mode causal|global|weak] [--seed K]
        CDC saga scenario: order/payment/inventory sagas through both
        front-ends — ORM writes plus raw writes via the transactional
        outbox — with declined payments compensated by raw releases;
        proves the inventory balance invariant and digest-equal
        replicas, then injects a broker loss and heals it with
        targeted repair; exits 0 iff converged, balanced and healed
    repair --demo [--objects N] [--lose K]
        reproduce the §6.5 message-loss incident (lost write-messages
        wedging a causal subscriber), audit replica divergence with
        Merkle digests, and heal it with targeted repair — no queue
        decommission, no full re-bootstrap; exits 0 iff the replicas
        end digest-equal
    version
"""

from __future__ import annotations

import contextlib
import sys
import tempfile


def _metrics_command(with_trace: bool) -> int:
    """Drive one publisher write through the full pipeline and print the
    registry snapshot (and, with ``--trace``, the per-stage spans)."""
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike
    from repro.databases.relational import PostgresLike
    from repro.orm import Field, Model
    from repro.runtime.tracing import format_trace

    eco = Ecosystem()
    if with_trace:
        eco.enable_tracing()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"], name="User")
    class User(Model):
        name = Field(str)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="User")
    class SubUser(Model):
        name = Field(str)

    with contextlib.ExitStack() as stack:
        if with_trace:
            # Durability on (fsync off, scratch dir) so the trace shows
            # the wal.append spans next to the stages they sit inside,
            # and the wal.flush span of each step's one write.
            data_dir = stack.enter_context(tempfile.TemporaryDirectory())
            stack.callback(eco.enable_durability(data_dir=data_dir).close)
        with pub.controller():
            for i in range(5):
                User.create(name=f"user-{i}")
        sub.subscriber.drain()

    print("MetricsRegistry snapshot (pub -> sub, 5 writes)")
    for name, value in eco.metrics.snapshot().items():
        if isinstance(value, dict):
            rendered = (
                f"count={value['count']} mean={value['mean'] * 1000:.3f}ms "
                f"p99={value['p99'] * 1000:.3f}ms"
            )
        else:
            rendered = str(value)
        print(f"  {name:<36} {rendered}")
    if with_trace:
        trace = eco.tracer.last()
        print()
        if trace is None:
            print("no finished traces recorded")
            return 1
        for line in format_trace(trace):
            print(line)
    return 0


def _repair_demo(objects: int, lose: int) -> int:
    """§6.5 in miniature: lose write-messages under causal delivery,
    watch the subscriber wedge, then audit + targeted-repair it back to
    digest-equality without decommissioning anything."""
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike
    from repro.databases.relational import PostgresLike
    from repro.orm import Field, Model

    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name", "score"], name="User")
    class User(Model):
        name = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name", "score"]}, name="User")
    class SubUser(Model):
        name = Field(str)
        score = Field(int, default=0)

    users = []
    with pub.controller():
        for i in range(objects):
            users.append(User.create(name=f"user-{i}", score=i))
    sub.subscriber.drain()
    print(f"replicated {objects} objects; injecting loss of {lose} messages...")

    eco.broker.drop_next(lose)
    with pub.controller():
        for user in users[:lose]:
            user.score += 1000
            user.save()
    # Follow-up writes to the same objects: their messages depend on the
    # lost increments and wedge the causal queue (§6.5 deadlock).
    with pub.controller():
        for user in users[:lose]:
            user.score += 1000
            user.save()
    sub.subscriber.drain()

    report = sub.audit_replication()
    for line in report.summary_lines():
        print(line)
    if report.in_sync:
        print("nothing to repair — loss injection did not diverge replicas")
        return 1

    print()
    result = sub.repair_replication(report=report)
    for line in result.summary_lines():
        print(line)

    print()
    snapshot = eco.metrics.snapshot()
    print("repair.* metrics:")
    for name, value in snapshot.items():
        if name.startswith("repair."):
            rendered = (
                f"count={value['count']} mean={value['mean'] * 1000:.3f}ms"
                if isinstance(value, dict) else str(value)
            )
            print(f"  {name:<40} {rendered}")
    stats = eco.broker.queue_stats("sub")["sub"]
    print(
        f"queue after repair: queued={stats['queued']} "
        f"in_flight={stats['in_flight']} decommissioned={stats['decommissioned']}"
    )
    if not result.verified_in_sync:
        print("FAILED: replicas still divergent after repair")
        return 1
    if stats["decommissioned"]:
        print("FAILED: repair should never decommission the queue")
        return 1
    print("OK: replicas digest-equal, queue intact")
    return 0


def main(argv: list) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, args = argv[0], argv[1:]
    if command == "version":
        import repro

        print(repro.__version__)
        return 0
    if command == "demo":
        scenarios = {
            "quickstart": "examples.quickstart",
            "social": "examples.social_ecosystem",
            "crowdtap": "examples.crowdtap_microservices",
            "migration": "examples.live_migration",
            "analytics": "examples.analytics_pipeline",
            "fig8": "examples.fig8_walkthrough",
        }
        name = args[0] if args else "quickstart"
        module_name = scenarios.get(name)
        if module_name is None:
            print(f"unknown demo {name!r}; options: {sorted(scenarios)}")
            return 1
        # Examples live next to the repo root, not inside the package.
        import importlib
        import os

        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        sys.path.insert(0, repo_root)
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            print("examples/ not found — run from a source checkout")
            return 1
        module.main()
        return 0
    if command == "metrics":
        return _metrics_command("--trace" in args)
    if command == "watch":
        from repro.runtime.monitor.watch import watch_command

        return watch_command(args)
    if command == "trace":
        from repro.runtime.transport.demo import trace_command

        return trace_command(args)
    if command == "conformance":
        from repro.runtime.conformance.cli import conformance_command

        return conformance_command(args)
    if command == "flow":
        from repro.runtime.flow.demo import flow_command

        return flow_command(args)
    if command == "views":
        from repro.views.demo import views_command

        return views_command(args)
    if command == "shard":
        from repro.runtime.transport.demo import shard_command

        return shard_command(args)
    if command == "recover":
        from repro.durability.demo import recover_command

        return recover_command(args)
    if command == "saga":
        from repro.cdc.demo import saga_command

        return saga_command(args)
    if command == "repair":
        def _flag(name: str, default: int) -> int:
            if name in args:
                return int(args[args.index(name) + 1])
            return default

        if "--demo" not in args:
            print("the repair command currently only supports --demo")
            return 1
        return _repair_demo(
            objects=_flag("--objects", 40), lose=_flag("--lose", 3)
        )
    if command == "topology":
        from repro.core.tools import describe_ecosystem, to_dot

        which = args[0] if args else "social"
        if which == "crowdtap":
            from repro.apps.crowdtap import build_crowdtap_ecosystem

            eco = build_crowdtap_ecosystem().eco
        else:
            from repro.apps import build_social_ecosystem

            eco = build_social_ecosystem().eco
        if "--dot" in args:
            print(to_dot(eco))
        else:
            print(describe_ecosystem(eco))
        return 0
    print(f"unknown command {command!r}")
    print(__doc__)
    return 1


if __name__ == "__main__":  # pragma: no cover - thin shim
    raise SystemExit(main(sys.argv[1:]))
