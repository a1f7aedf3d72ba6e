"""The 2-shard social-ecosystem demo (``python -m repro shard --demo``).

Six services across two worker processes; the broker forward seam and
the control plane are the only things crossing the process boundary:

- ``shard0`` owns ``social0`` (publisher), ``feed0`` (its local
  subscriber) and ``mirror1`` — a subscriber of ``social1``, which lives
  on the *other* shard;
- ``shard1`` owns ``social1``, ``feed1`` and ``mirror0`` (subscriber of
  ``social0``).

Both shards run the §6.3 social workload concurrently, so every publish
fans out to one local queue and one forwarded cross-shard queue. After
the mesh quiesces, each shard audits its subscribers — the mirrors'
Merkle digests come from the remote publisher over the control plane —
then deliberately loses one mirror row and heals it with a cross-process
targeted repair (§6.5 over a pipe).

Everything here is module-level so the spawn start method can pickle the
callables by reference; a run's parameters reach the worker processes
bound onto them with :func:`functools.partial`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional

from repro.core.tools import flags
from repro.runtime.transport.shard import ShardRunner

#: shard -> services it owns. The mirrors are deliberately placed on the
#: opposite shard from their publisher: every mirror delivery and every
#: mirror audit/repair must cross the process boundary.
DEMO_PLACEMENT = {
    "shard0": ["social0", "feed0", "mirror1"],
    "shard1": ["social1", "feed1", "mirror0"],
}


def _subscribe_social(ecosystem: Any, name: str, from_app: str) -> Any:
    """A subscriber service mirroring the social publisher's models."""
    from repro.databases.document import MongoLike
    from repro.orm import Field, Model

    service = ecosystem.service(name, database=MongoLike(f"{name}-db"))

    @service.model(subscribe={"from": from_app, "fields": ["name"]},
                   name="User")
    class User(Model):
        name = Field(str)

    @service.model(subscribe={"from": from_app,
                              "fields": ["author_id", "body"]},
                   name="Post")
    class Post(Model):
        body = Field(str)
        author_id = Field(int)

    @service.model(subscribe={"from": from_app,
                              "fields": ["post_id", "author_id", "body"]},
                   name="Comment")
    class Comment(Model):
        body = Field(str)
        post_id = Field(int)
        author_id = Field(int)

    return service


def build_demo_ecosystem(trace_sample: float = 0.0) -> Any:
    """Every shard rebuilds this full topology, then narrows ownership.
    ``trace_sample`` 1.0 makes every message carry its trace across the
    wire; 0 leaves tracing off."""
    from repro.core import Ecosystem
    from repro.workloads import build_social_publisher

    ecosystem = Ecosystem()
    build_social_publisher(ecosystem, name="social0")
    build_social_publisher(ecosystem, name="social1")
    _subscribe_social(ecosystem, "feed0", "social0")
    _subscribe_social(ecosystem, "feed1", "social1")
    _subscribe_social(ecosystem, "mirror0", "social0")
    _subscribe_social(ecosystem, "mirror1", "social1")
    if trace_sample > 0.0:
        ecosystem.enable_tracing(sample_rate=trace_sample)
    return ecosystem


def _publisher_of(shard_name: str) -> str:
    return "social0" if shard_name == "shard0" else "social1"


def demo_scenario(
    ecosystem: Any, shard_name: str, operations: int = 60
) -> Dict[str, Any]:
    """Run the social workload on this shard's publisher."""
    from repro.workloads import SocialWorkload

    name = _publisher_of(shard_name)
    service = ecosystem.local_service(name)
    workload = SocialWorkload(
        service,
        service.registry["User"],
        service.registry["Post"],
        service.registry["Comment"],
        users=5,
        seed=11 if shard_name == "shard0" else 23,
    )
    workload.run(operations)
    return {
        "publisher": name,
        "operations": operations,
        "posts": workload.posts_created,
        "comments": workload.comments_created,
        "published": service.publisher.messages_published,
    }


def inject_lag_breach(ecosystem: Any) -> Dict[str, Any]:
    """Pin an impossible SLO on a link this shard publishes to, push a
    few real writes through it, and evaluate: the guaranteed
    ``slo.breach`` anomaly drives the flight recorder's auto-dump, whose
    incident sink broadcasts the incident id to every peer shard (the
    correlated-postmortem path, end to end)."""
    from repro.runtime.monitor import LinkSLO

    links = ecosystem.monitor.links()
    if not links:
        return {"injected": False}
    # Prefer the cross-shard link (publisher on another shard): the
    # postmortem question is then "what was the *other* process doing".
    owned = ecosystem.owned_services or set()
    publisher, subscriber = next(
        ((pub, sub) for pub, sub in links if pub not in owned), links[0]
    )
    ecosystem.monitor.set_slo(
        publisher, subscriber, LinkSLO(p99_lag=0.0, over_budget=0.001)
    )
    # set_slo resets the lag window, so feed it post-SLO samples the way
    # the apply path would — every one of them over the 0-second budget.
    window = ecosystem.monitor._window_for(publisher, subscriber)
    for _ in range(8):
        window.record(0.5)
    report = ecosystem.monitor.health()
    entry = report.link(publisher, subscriber)
    return {
        "injected": True,
        "link": [publisher, subscriber],
        "breached": bool(entry is not None and entry.breached),
        "dumps": list(ecosystem.recorder.dumps),
    }


def audit_owned_subscribers(ecosystem: Any) -> Dict[str, Dict[str, Any]]:
    """Audit every subscriber this shard owns against its publishers —
    remote ones answer with their Merkle digests over the control plane
    — and count the replica rows of each subscribed model."""
    audits: Dict[str, Dict[str, Any]] = {}
    for service in ecosystem.local_services():
        if not service.subscriber.specs:
            continue
        report = service.audit_replication()
        audits[service.name] = {
            "in_sync": report.in_sync,
            "divergent": report.divergent_total,
            "rows": {
                model: service.registry[model].count()
                for _app, model in sorted(service.subscriber.specs)
            },
        }
    return audits


def demo_verify(
    ecosystem: Any, shard_name: str, breach_shard: Optional[str] = None
) -> Dict[str, Any]:
    """Audit every owned subscriber, then lose-and-repair one mirror row
    across the process boundary. ``breach_shard`` names the shard that
    first injects an impossible SLO (the correlated-postmortem demo: its
    breach dump pulls every peer's too)."""
    breach: Optional[Dict[str, Any]] = None
    if breach_shard == shard_name:
        breach = inject_lag_breach(ecosystem)
    audits = audit_owned_subscribers(ecosystem)

    # The mirror's publisher lives on the other shard: the audit above
    # already exchanged digests over the pipe; now lose a replicated row
    # locally and let targeted repair heal it — the repair trigger, the
    # re-published message and the verifying re-audit all cross shards.
    mirror_name = "mirror1" if shard_name == "shard0" else "mirror0"
    mirror = ecosystem.local_service(mirror_name)
    repair_summary: Dict[str, Any] = {"mirror": mirror_name, "ran": False}
    posts = mirror.registry["Post"].all()
    if posts:
        mirror.registry["Post"].__mapper__._do_delete(posts[0].id)
        result = mirror.repair_replication()
        repair_summary.update(
            ran=True,
            divergent=result.audit.divergent_total,
            objects_repaired=result.objects_repaired,
            verified_in_sync=result.verified_in_sync,
        )
    out: Dict[str, Any] = {"audits": audits, "repair": repair_summary}
    if breach is not None:
        out["breach"] = breach
    return out


def run_demo(
    operations: int = 60,
    timeout: float = 60.0,
    trace_sample: Optional[float] = None,
    breach_shard: Optional[str] = None,
    incident_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Build the runner and drive the full 2-shard demo."""
    return ShardRunner(
        partial(build_demo_ecosystem, trace_sample=trace_sample or 0.0),
        DEMO_PLACEMENT,
        scenario=partial(demo_scenario, operations=operations),
        verify=partial(demo_verify, breach_shard=breach_shard),
        timeout=timeout,
        incident_dir=incident_dir,
    ).run()


def run_trace_demo(
    uid: Optional[str] = None,
    operations: int = 40,
    timeout: float = 60.0,
) -> Optional[Dict[str, Any]]:
    """Run the 2-shard demo with 100% sampling and fetch one assembled
    cross-shard trace (the requested ``uid``, else the first uid that
    both shards hold spans for). Returns the assembled dict, or None
    when no trace matched."""
    runner = ShardRunner(
        partial(build_demo_ecosystem, trace_sample=1.0),
        DEMO_PLACEMENT,
        scenario=partial(demo_scenario, operations=operations),
        timeout=timeout,
    )
    try:
        runner.start()
        runner.run_scenarios()
        runner.quiesce()
        if uid is None:
            report = runner.cluster_request("trace_ids")
            holders: Dict[str, set] = {}
            for shard, result in report["shards"].items():
                for trace_id in result["ids"]:
                    holders.setdefault(trace_id, set()).add(shard)
            cross = sorted(t for t, s in holders.items() if len(s) >= 2)
            uid = cross[0] if cross else min(holders, default=None)
        assembled = (
            runner.cluster_request("trace_fetch", uid=uid)
            if uid is not None else None
        )
        runner.finish()
        return assembled
    finally:
        runner.close()


def trace_command(args: Any) -> int:
    """``python -m repro trace [<uid>] [--operations N] [--timeout S]``.

    Drives the 2-shard demo with every message sampled, assembles the
    requested (or first cross-shard) trace from both OS processes, and
    prints it with normalized timestamps, per-hop transit latency and
    the critical path. Exit 0 iff spans from at least two shards landed
    in one assembled trace."""
    from repro.runtime.monitor.cluster import format_assembled_trace

    uid = None
    skip = False
    for arg in args:
        if skip:
            skip = False
            continue
        if arg.startswith("--"):
            skip = True  # every flag of this command takes a value
            continue
        uid = arg
        break
    assembled = run_trace_demo(
        uid=uid, **flags(args, operations=40, timeout=60.0)
    )
    if assembled is None:
        print("no sampled traces were recorded by either shard")
        return 1
    for line in format_assembled_trace(assembled):
        print(line)
    if assembled["found"] and len(assembled["shards"]) >= 2:
        return 0
    print("FAILED: expected spans from at least two shards")
    return 1


def shard_command(args: Any) -> int:
    """``python -m repro shard --demo [--operations N] [--timeout S]``."""
    opts = flags(args, operations=60, timeout=60.0)
    print(
        f"2-shard social ecosystem: {opts['operations']} operations per "
        "shard, mirrors subscribed across the process boundary"
    )
    outcome = run_demo(**opts)
    for shard_name in sorted(outcome["shards"]):
        shard = outcome["shards"][shard_name]
        scenario = shard.get("scenario") or {}
        verify = shard.get("verify") or {}
        stats = shard.get("stats") or {}
        print(f"{shard_name} (owns {', '.join(stats.get('owned', []))}):")
        print(
            f"  workload: {scenario.get('posts', 0)} posts + "
            f"{scenario.get('comments', 0)} comments -> "
            f"{scenario.get('published', 0)} messages from "
            f"{scenario.get('publisher', '?')}"
        )
        print(
            f"  seam: routed={stats.get('routed', 0)} "
            f"forwarded={stats.get('forwarded', 0)} "
            f"delivered={stats.get('delivered', 0)} "
            f"dropped={stats.get('dropped', 0)}"
        )
        for name, audit in sorted((verify.get("audits") or {}).items()):
            state = "in sync" if audit["in_sync"] \
                else f"{audit['divergent']} divergent"
            rows = audit["rows"]
            print(
                f"  audit {name}: {state} "
                f"(users={rows['User']} posts={rows['Post']} "
                f"comments={rows['Comment']})"
            )
        repair = verify.get("repair") or {}
        if repair.get("ran"):
            print(
                f"  repair {repair['mirror']}: {repair['divergent']} "
                f"divergent -> {repair['objects_repaired']} repaired, "
                f"verified={repair['verified_in_sync']}"
            )
    print(
        f"quiesced after {outcome['quiesce_polls']} polls in "
        f"{outcome['elapsed']:.2f}s"
    )
    if demo_healthy(outcome):
        print("OK: all audits digest-equal, cross-shard repairs verified")
        return 0
    print("FAILED: divergence or unverified repair — see above")
    return 1


def demo_healthy(outcome: Dict[str, Any]) -> bool:
    """Did the demo demonstrate what it claims? Every audit in sync and
    every cross-shard repair verified."""
    for shard in outcome["shards"].values():
        verify = shard.get("verify") or {}
        for audit in (verify.get("audits") or {}).values():
            if not audit["in_sync"]:
                return False
        repair = verify.get("repair") or {}
        if not repair.get("ran") or not repair.get("verified_in_sync"):
            return False
        if (shard.get("stats") or {}).get("dropped"):
            return False
    return True
