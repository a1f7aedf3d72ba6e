"""Kill-and-restart recovery demo (``python -m repro recover --demo``).

Two shards, each owning one publisher and the *other* shard's
subscriber, so every replication message crosses the process boundary:

- ``alpha`` owns ``pub0`` and ``sub1`` (subscriber of ``pub1``);
- ``beta``  owns ``pub1`` and ``sub0`` (subscriber of ``pub0``).

Phase A (crash): both shards run with durability enabled, WAL-ing to
``<data_dir>/<shard>/``. The survivor (``alpha``) publishes its workload
first — its forwarded messages land in the victim's subscriber queue and
its WAL. Then the victim (``beta``) publishes its own workload and
``kill -9``\\ s itself mid-traffic, before draining anything: its queue
backlog, publisher rows and version-store counters exist only in its
write-ahead log. The survivor checkpoints and exits cleanly.

Phase B (restart): a standard :class:`ShardRunner` starts fresh
processes over the *same* data directory. Each shard restores on
startup — the survivor from its snapshot, the victim by replaying its
WAL — then drains, audits every replica against the remote publisher's
Merkle digests over the control plane, heals any message that died
in a pipe with targeted repair (§6.5), and re-audits. The demo is
healthy iff the victim was really SIGKILLed, its restore replayed and
requeued work, and every final audit is digest-equal.

Everything is module-level so the process start methods can pickle the
callables by reference; a run's parameters reach the worker processes
bound onto them with :func:`functools.partial`.
"""

from __future__ import annotations

import os
import signal
import tempfile
from functools import partial
from typing import Any, Dict, Optional

from repro.core.tools import flags
from repro.runtime.transport.demo import audit_owned_subscribers
from repro.runtime.transport.shard import ShardRunner

#: shard -> services. Subscribers live opposite their publisher, so both
#: the replication stream and the audit digests cross processes.
RECOVER_PLACEMENT = {
    "alpha": ["pub0", "sub1"],
    "beta": ["pub1", "sub0"],
}

#: The shard that gets SIGKILLed mid-traffic in phase A.
RECOVER_VICTIM = "beta"

RECOVER_PUBLISHER = {"alpha": "pub0", "beta": "pub1"}


def build_recover_ecosystem() -> Any:
    """Two publisher/subscriber pairs; every shard rebuilds the full
    topology and narrows ownership (declarations are code)."""
    from repro.apps import build_replicated_pair
    from repro.core import Ecosystem

    ecosystem = Ecosystem()
    for pub_name, sub_name in (("pub0", "sub0"), ("pub1", "sub1")):
        build_replicated_pair(
            ecosystem, {"name": str, "score": int}, "Item",
            pub=pub_name, sub=sub_name,
        )
    return ecosystem


def recover_scenario(
    ecosystem: Any, shard_name: str, operations: int = 24,
    victim: Optional[str] = None,
) -> Dict[str, Any]:
    """Publish this shard's workload; the shard named ``victim`` then
    SIGKILLs itself mid-traffic, leaving its backlog only in the WAL."""
    pub_name = RECOVER_PUBLISHER[shard_name]
    service = ecosystem.local_service(pub_name)
    Item = service.registry["Item"]

    items = []
    with service.controller():
        for i in range(operations):
            items.append(Item.create(name=f"{pub_name}-item-{i}", score=i))
    # A causally-chained second wave: updates depend on the creates, so
    # a restore that loses ordering would wedge or misapply them.
    with service.controller():
        for item in items[: operations // 2]:
            item.score += 100
            item.save()

    if shard_name == victim:
        # The point of the demo: a real, unhandled kill — no atexit, no
        # flush hooks, no goodbye to the parent. Everything this shard
        # still owes (its undrained subscriber queue, its publisher's
        # rows and counters) must come back from the WAL alone.
        os.kill(os.getpid(), signal.SIGKILL)

    return {
        "publisher": pub_name,
        "operations": operations,
        "published": service.publisher.messages_published,
    }


def recover_converge(ecosystem: Any, shard_name: str) -> Dict[str, Any]:
    """Phase B per-shard convergence: drain the restored backlog, then
    audit against the remote publisher and heal anything that died in a
    pipe with targeted repair (the §6.5 remedy) so the mesh can quiesce."""
    results: Dict[str, Any] = {}
    for service in ecosystem.local_services():
        if not service.subscriber.specs:
            continue
        service.subscriber.drain()
        result = service.repair_replication()
        results[service.name] = {
            "in_sync_before_repair": result.audit.in_sync,
            "objects_repaired": result.objects_repaired,
        }
    return results


def recover_verify(ecosystem: Any, shard_name: str) -> Dict[str, Any]:
    """Final cross-process Merkle audit of every owned replica."""
    return {"audits": audit_owned_subscribers(ecosystem)}


# -- phase A: the crash run ----------------------------------------------------


def _run_crash_phase(
    data_dir: str, operations: int, timeout: float
) -> Dict[str, Any]:
    """Drive a :class:`ShardRunner` through the crash, phase by phase:
    survivor's workload, victim's workload ending in SIGKILL, survivor
    checkpoint. The victim's death (exitcode ``-SIGKILL``) is the
    expected outcome, not a transport error."""
    victim = RECOVER_VICTIM
    survivor = next(name for name in RECOVER_PLACEMENT if name != victim)
    runner = ShardRunner(
        build_recover_ecosystem,
        RECOVER_PLACEMENT,
        scenario=partial(
            recover_scenario, operations=operations, victim=victim
        ),
        timeout=timeout,
        durability_dir=data_dir,
    )
    killed = False
    survivor_scenario: Dict[str, Any] = {}
    survivor_stats: Dict[str, Any] = {}
    try:
        runner.start()
        # Survivor first: its forwarded messages reach the victim's
        # queue — and therefore the victim's WAL — while it still lives.
        survivor_scenario = runner.run_scenarios([survivor])[survivor]
        # The victim publishes its own workload and kills itself.
        killed = runner.run_to_death(victim) == -signal.SIGKILL
        # Let the survivor's link thread finish consuming whatever the
        # victim managed to push into the pipe before dying: the shared
        # quiesce helper polls the cluster health_report from inside the
        # survivor, degrading to counter-stability for the dead peer.
        runner.quiesce(survivor)
        survivor_stats = runner.finish([survivor])[survivor]
    finally:
        runner.close()
    return {
        "victim": victim,
        "killed": killed,
        "survivor": survivor,
        "survivor_scenario": survivor_scenario,
        "survivor_stats": survivor_stats,
    }


# -- the full demo -------------------------------------------------------------


def run_recover_demo(
    operations: int = 24,
    timeout: float = 60.0,
    data_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Phase A (crash) then phase B (restart over the same data dir)."""
    if data_dir is None:
        data_dir = tempfile.mkdtemp(prefix="repro-recover-")
    crash = _run_crash_phase(data_dir, operations, timeout)
    runner = ShardRunner(
        build_recover_ecosystem,
        RECOVER_PLACEMENT,
        scenario=recover_converge,
        verify=recover_verify,
        timeout=timeout,
        durability_dir=data_dir,
    )
    restart = runner.run()
    return {"data_dir": data_dir, "crash": crash, "restart": restart}


def recover_healthy(outcome: Dict[str, Any]) -> bool:
    """Did the demo demonstrate what it claims? The victim really died
    by SIGKILL, its restore replayed WAL records and requeued backlog,
    no restore was unrecoverable, and every final audit is in sync."""
    crash = outcome["crash"]
    if not crash.get("killed"):
        return False
    shards = outcome["restart"]["shards"]
    victim = crash["victim"]
    restored = (shards[victim]["stats"] or {}).get("restored") or {}
    if restored.get("unrecoverable", True):
        return False
    if not restored.get("replayed") or not restored.get("requeued"):
        return False
    for shard in shards.values():
        if (shard["stats"] or {}).get("restored", {}).get("unrecoverable"):
            return False
        for audit in (shard.get("verify") or {}).get("audits", {}).values():
            if not audit["in_sync"]:
                return False
    return True


def recover_command(args: Any) -> int:
    """``python -m repro recover --demo [--operations N] [--timeout S]``."""
    opts = flags(args, operations=24, timeout=60.0)
    print(
        f"phase A: 2 shards, durability on, {opts['operations']} writes per "
        f"publisher; SIGKILL {RECOVER_VICTIM!r} mid-traffic..."
    )
    outcome = run_recover_demo(**opts)
    crash = outcome["crash"]
    print(
        f"  victim {crash['victim']!r} killed: {crash['killed']} "
        f"(survivor {crash['survivor']!r} published "
        f"{crash['survivor_scenario'].get('published', 0)} messages, "
        "checkpointed, exited cleanly)"
    )
    print(f"phase B: restart both shards over {outcome['data_dir']} ...")
    shards = outcome["restart"]["shards"]
    for shard_name in sorted(shards):
        shard = shards[shard_name]
        restored = (shard["stats"] or {}).get("restored") or {}
        print(
            f"  {shard_name}: restored snapshot="
            f"{restored.get('snapshot_id')} "
            f"replayed={restored.get('replayed', 0)} WAL records, "
            f"requeued={restored.get('requeued', 0)} backlog messages, "
            f"re-applied={restored.get('applied', 0)}"
        )
        for name, state in sorted(shard["scenario"].items()):
            print(
                f"    {name}: in_sync_before_repair="
                f"{state['in_sync_before_repair']} "
                f"repaired={state['objects_repaired']}"
            )
        for name, audit in sorted(shard["verify"]["audits"].items()):
            state = "in sync" if audit["in_sync"] \
                else f"{audit['divergent']} divergent"
            print(f"    audit {name}: {state} (rows={audit['rows']['Item']})")
    print(
        f"  quiesced after {outcome['restart']['quiesce_polls']} polls in "
        f"{outcome['restart']['elapsed']:.2f}s"
    )
    if recover_healthy(outcome):
        print("OK: kill -9'd shard restored from WAL, all audits digest-equal")
        return 0
    print("FAILED: restore incomplete or replicas divergent — see above")
    return 1
