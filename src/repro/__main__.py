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
                [--find MARKER]
        deterministic delivery-semantics conformance: every directed
        scenario (the six demos below included, unnarrated) plus a
        seeded-schedule sweep over the real
        queue/worker-step/subscriber/version-store code; with --seed K,
        replay one schedule and dump its violations and trace tail;
        with --find MARKER, print the replay line of the first of
        --seeds N whose run is clean and whose trace holds that event
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
        OS processes in recorded start order (one host, one clock),
        with per-hop transit latency and the critical path; exits 0
        iff at least two shards contributed spans
    flow --demo [--writes N] [--queue-limit Q]
        flow.shed-and-coalesce: flood a small bounded queue and watch
        graduated backpressure shed weak publishes before the kill
        cliff, then a hot-object update storm coalesce and drain
        through batched pops of single applies (flow.admission-safety)
    views --demo [--writes N]
        views.restore-rebuild: derived read models (count, sum, top-k,
        per-author feeds) maintained in the apply path behind a
        versioned cache, each checked against full recomputation, the
        cache read fresh, then a kill-and-restart whose restore must
        rebuild them exactly (views.read-freshness)
    shard --demo [--operations N] [--timeout S]
        shard.cross-process-repair: two worker processes each own half
        of a six-service social ecosystem; write messages bound for
        remote queues are forwarded through the broker seam, and every
        audit and repair rides control-plane envelopes over pipes; all
        audits digest-equal, nothing dropped, the cross-shard targeted
        repair verified (delivery.at-least-once)
    recover --demo [--operations N] [--timeout S]
        durability.kill-shard: two shards WAL every state transition,
        one is kill -9'd mid-traffic, and a restart over the same
        (temporary) data directory restores it from snapshot + WAL
        replay; the mesh must end audit-clean
        (durability.restore-equivalence)
    saga --demo [--sagas N] [--mode causal|global|weak] [--seed K]
        saga.loss-healed: order/payment/inventory sagas through both
        front-ends — ORM writes plus raw writes via the transactional
        outbox — with declined payments compensated by raw releases;
        the books balance and the replicas are digest-equal, then an
        injected broker loss is healed by targeted repair
        (saga.inventory-balance)
    repair --demo [--objects N] [--lose K]
        repair.lost-messages: the §6.5 message-loss incident (lost
        write-messages wedging a causal subscriber), replica divergence
        audited by row-hash digests and healed by targeted repair —
        bootstrap's counter-and-row transfer for the divergent ids
        only: no queue decommission, nothing published
        (delivery.at-least-once)
    version

Each --demo command runs the directed scenario it names (the registry
repro.runtime.conformance.scenarios.SCENARIOS, which conformance runs
whole), printing its narration; every violation prints as "FAILED
<invariant>: ..." and makes the exit code 1. The scenario's parameters
are its flags. A flag without a value, or with one that does not parse,
is a one-line usage error.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
import tempfile
from typing import Callable, Dict, List

from repro.core.tools import flags


def _metrics_command(args: List[str]) -> int:
    """Drive one publisher write through the full pipeline and print the
    registry snapshot (and, with ``--trace``, the per-stage spans)."""
    from repro.apps import build_replicated_pair
    from repro.runtime.tracing import format_trace

    with_trace = "--trace" in args
    eco, pub, sub, User = build_replicated_pair(model="User")
    if with_trace:
        eco.enable_tracing()

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


def _version_command(args: List[str]) -> int:
    import repro

    print(repro.__version__)
    return 0


_EXAMPLES = {
    "quickstart": "examples.quickstart",
    "social": "examples.social_ecosystem",
    "crowdtap": "examples.crowdtap_microservices",
    "migration": "examples.live_migration",
    "analytics": "examples.analytics_pipeline",
    "fig8": "examples.fig8_walkthrough",
}


def _demo_command(args: List[str]) -> int:
    name = args[0] if args else "quickstart"
    module_name = _EXAMPLES.get(name)
    if module_name is None:
        print(f"unknown demo {name!r}; options: {sorted(_EXAMPLES)}")
        return 1
    # Examples live next to the repo root, not inside the package.
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


def _topology_command(args: List[str]) -> int:
    from repro.core.tools import describe_ecosystem, to_dot

    if args and args[0] == "crowdtap":
        from repro.apps.crowdtap import build_crowdtap_ecosystem as build
    else:
        from repro.apps import build_social_ecosystem as build
    eco = build().eco
    print(to_dot(eco) if "--dot" in args else describe_ecosystem(eco))
    return 0


def _lazy(module: str, name: str) -> Callable[[List[str]], int]:
    """``module.name``, imported only when the command runs."""
    return lambda args: getattr(importlib.import_module(module), name)(args)


def _directed(key: str) -> Callable[[List[str]], int]:
    """A demo command: ``--demo`` runs the directed scenario registered
    as ``key``, narrated, its keyword defaults read as flags; each
    violation is printed and makes the exit code 1."""

    def command(args: List[str]) -> int:
        from repro.runtime.conformance.scenarios import SCENARIOS

        if "--demo" not in args:
            print("this command currently only supports --demo")
            return 1
        scenario = SCENARIOS[key]
        defaults = {
            name: parameter.default
            for name, parameter in inspect.signature(scenario).parameters.items()
            if name != "say"
        }
        violations = scenario(say=print, **flags(args, **defaults))
        for violation in violations:
            print(f"FAILED {violation}")
        return 1 if violations else 0

    return command


#: command -> its ``handler(args) -> exit code``. The module docstring
#: above is the reference for what each one does.
COMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "demo": _demo_command,
    "topology": _topology_command,
    "metrics": _metrics_command,
    "conformance": _lazy("repro.runtime.conformance.cli", "conformance_command"),
    "watch": _lazy("repro.runtime.monitor.watch", "watch_command"),
    "trace": _lazy("repro.runtime.transport.demo", "trace_command"),
    "flow": _directed("flow.shed-and-coalesce"),
    "views": _directed("views.restore-rebuild"),
    "shard": _directed("shard.cross-process-repair"),
    "recover": _directed("durability.kill-shard"),
    "saga": _directed("saga.loss-healed"),
    "repair": _directed("repair.lost-messages"),
    "version": _version_command,
}


def main(argv: list) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, args = argv[0], argv[1:]
    handler = COMMANDS.get(command)
    if handler is None:
        print(f"unknown command {command!r}")
        print(__doc__)
        return 1
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - thin shim
    raise SystemExit(main(sys.argv[1:]))
