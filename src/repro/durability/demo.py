"""Kill-and-restart recovery: the ``durability.kill-shard`` directed
scenario (``python -m repro recover --demo``).

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
row-hash digests over the control plane, heals any message that died
in a pipe with targeted repair (§6.5), and re-audits. Each violation
is an ``INV_DURABLE`` one: the victim was not really SIGKILLed, its
restore replayed or requeued nothing, a restore was unrecoverable, or a
final audit (raised by the shard's verify step) is not digest-equal.

Everything is module-level so the process start methods can pickle the
callables by reference; a run's parameters reach the worker processes
bound onto them with :func:`functools.partial`.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from functools import partial
from typing import Any, Callable, Dict, List

from repro.runtime.conformance.checker import INV_DURABLE, Violation, silent
from repro.runtime.transport.demo import (
    audit_owned_subscribers, say_audits, violations_of,
)
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


def recover_workload(
    ecosystem: Any, shard_name: str, operations: int = 24, victim: str = ""
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
        # The survivor published the same workload first. Its forwarded
        # messages must be in this shard's queue, and so in its WAL,
        # when the kill lands: the link thread may still be reading
        # them, so wait for all of them (bounded).
        queues = [s.subscriber.queue for s in ecosystem.local_services()
                  if s.subscriber.specs]
        deadline = time.monotonic() + 10.0
        while (sum(len(queue) for queue in queues) < operations + operations // 2
               and time.monotonic() < deadline):
            time.sleep(0.001)
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
    """Final cross-process digest audit of every owned replica."""
    return audit_owned_subscribers(ecosystem, INV_DURABLE)


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
            recover_workload, operations=operations, victim=victim
        ),
        timeout=timeout,
        durability_dir=data_dir,
    )
    killed = False
    survivor_scenario: Dict[str, Any] = {}
    try:
        runner.start()
        # Survivor first: its forwarded messages reach the victim's
        # queue — and therefore the victim's WAL — while it still lives.
        survivor_scenario = runner.run_scenarios([survivor])[survivor]
        # The victim publishes its own workload and kills itself.
        killed = runner.run_to_death(victim) == -signal.SIGKILL
        # Let the survivor's link thread finish consuming whatever the
        # victim managed to push into the pipe before dying: the shared
        # quiesce helper polls the cluster snapshot from inside the
        # survivor, degrading to counter-stability for the dead peer.
        runner.quiesce(survivor)
        runner.finish([survivor])
    finally:
        runner.close()
    return {
        "victim": victim,
        "killed": killed,
        "survivor": survivor,
        "survivor_scenario": survivor_scenario,
    }


# -- the full scenario ----------------------------------------------------------


def run_recover_demo(
    data_dir: str, operations: int = 24, timeout: float = 60.0
) -> Dict[str, Any]:
    """Phase A (crash) then phase B (restart over the same data dir);
    ``violations`` holds what went wrong in either."""
    crash = _run_crash_phase(data_dir, operations, timeout)
    restart = ShardRunner(
        build_recover_ecosystem,
        RECOVER_PLACEMENT,
        scenario=recover_converge,
        verify=recover_verify,
        timeout=timeout,
        durability_dir=data_dir,
    ).run()
    victim = crash["victim"]
    violations = [] if crash["killed"] else [Violation(
        INV_DURABLE, f"shard {victim!r} was never SIGKILLed: the scenario "
        "exercised nothing",
    )]
    for name, shard in sorted(restart["shards"].items()):
        restored = shard["stats"]["restored"]
        if restored["unrecoverable"]:
            violations.append(Violation(
                INV_DURABLE, f"shard {name!r}: restore was unrecoverable"
            ))
        elif name == victim and not (restored["replayed"] and restored["requeued"]):
            violations.append(Violation(
                INV_DURABLE, f"victim {name!r} restored without replaying "
                f"WAL records ({restored['replayed']}) and requeueing its "
                f"backlog ({restored['requeued']})",
            ))
    violations += violations_of(restart)
    return {"crash": crash, "restart": restart, "violations": violations}


def recover_kill_scenario(
    say: Callable[[str], None] = silent,
    operations: int = 24,
    timeout: float = 60.0,
) -> List[Violation]:
    """SIGKILL a WAL-logging shard mid-traffic, restart both shards over
    the same data directory, and audit every replica across processes.
    The data directory is a temporary one, removed at the end."""
    say(
        f"phase A: 2 shards, durability on, {operations} writes per "
        f"publisher; SIGKILL {RECOVER_VICTIM!r} mid-traffic..."
    )
    with tempfile.TemporaryDirectory(prefix="repro-recover-") as data_dir:
        outcome = run_recover_demo(data_dir, operations, timeout)
    crash, restart = outcome["crash"], outcome["restart"]
    say(
        f"  victim {crash['victim']!r} killed: {crash['killed']} "
        f"(survivor {crash['survivor']!r} published "
        f"{crash['survivor_scenario'].get('published', 0)} messages, "
        "checkpointed, exited cleanly)"
    )
    say("phase B: restart both shards over the same data directory ...")
    for shard_name, shard in sorted(restart["shards"].items()):
        restored = shard["stats"]["restored"]
        say(
            f"  {shard_name}: restored snapshot={restored['snapshot_id']} "
            f"replayed={restored['replayed']} WAL records, "
            f"requeued={restored['requeued']} backlog messages, "
            f"re-applied={restored['applied']}"
        )
        for name, state in sorted(shard["scenario"].items()):
            say(
                f"    {name}: in_sync_before_repair="
                f"{state['in_sync_before_repair']} "
                f"repaired={state['objects_repaired']}"
            )
        say_audits(say, shard["verify"]["audits"], "    ")
    say(
        f"  quiesced after {restart['quiesce_polls']} polls in "
        f"{restart['elapsed']:.2f}s"
    )
    if not outcome["violations"]:
        say("OK: kill -9'd shard restored from WAL, all audits digest-equal")
    return outcome["violations"]
