"""``python -m repro saga --demo`` — the CDC saga scenario end to end.

Drives a mix of approved and declined order/payment/inventory sagas
through both front-ends (ORM interceptor and raw-write outbox), proves
the ``INV_SAGA`` inventory balance and digest-equal replicas at
quiescence, then injects a broker message loss mid-saga and heals the
resulting divergence with targeted repair. Exits 0 iff the sagas
converge, the books balance, and the injected divergence is detected
and repaired.
"""

from __future__ import annotations

from typing import List

from repro.cdc.saga import (
    build_saga_ecosystem,
    check_saga_invariant,
    run_saga,
    run_sagas,
)
from repro.core.tools import flags


def saga_command(args: List[str]) -> int:
    opts = flags(args, sagas=6, mode="causal", seed=0)
    count, mode, seed = opts["sagas"], opts["mode"], opts["seed"]

    saga = build_saga_ecosystem(mode=mode, seed=seed)
    eco = saga.eco
    print(
        f"saga demo: {count} sagas, mode={mode}, "
        "order=relational payment/inventory=document, "
        "reservations via raw-write outbox"
    )
    outcomes = run_sagas(saga, count, seed=seed)
    approved = sum(1 for o in outcomes if o.approved)
    declined = len(outcomes) - approved
    for o in outcomes:
        verdict = "approved " if o.approved else "declined, compensated"
        print(f"  order {o.order_id}: qty={o.qty} [{verdict}]")
    print(f"converged: {approved} approved, {declined} declined+released")

    problems = check_saga_invariant(saga)
    if problems:
        print("FAILED: saga invariant broken at quiescence:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("INV_SAGA holds: reserved + released == ordered")

    audits = {svc.name: svc.audit_replication()
              for svc in saga.subscribing_services()}
    if not all(report.in_sync for report in audits.values()):
        print("FAILED: replicas divergent after a clean saga run:")
        for name, report in audits.items():
            if not report.in_sync:
                for line in report.summary_lines():
                    print(f"  {line}")
        return 1
    print("replicas digest-equal across all three services")

    snapshot = eco.metrics.snapshot()
    appended = snapshot.get("cdc.inventory.appended", 0)
    published = snapshot.get("cdc.inventory.published", 0)
    print(f"cdc: {appended} outbox entries appended, {published} published")

    # -- injected divergence + targeted heal -------------------------------
    print()
    print("injecting broker loss mid-saga...")
    eco.broker.drop_next(1)
    run_saga(saga, index=count, qty=3, approved=True)
    eco.drain_all()
    repairs = [svc.repair_replication() for svc in saga.subscribing_services()]
    detected = [result for result in repairs if not result.audit.in_sync]
    if not detected:
        print("FAILED: injected loss did not diverge any replica")
        return 1
    for result in detected:
        print(
            f"  {result.subscriber}: {result.audit.divergent_total} divergent "
            f"objects detected, {result.objects_repaired} repaired"
        )
    if not all(result.verified_in_sync for result in repairs):
        print("FAILED: divergence survived targeted repair")
        return 1
    problems = check_saga_invariant(saga)
    if problems:
        print("FAILED: saga invariant broken after repair:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("OK: divergence healed by targeted repair, books still balance")
    return 0
