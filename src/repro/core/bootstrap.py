"""Subscriber bootstrapping and recovery (§4.4).

Three steps: (1) the publisher's version-store counters are transferred
in bulk; (2) every subscribed object is dumped from the publisher's DB
and applied locally; (3) messages published meanwhile are drained. The
subscriber runs with weak semantics (``bootstrap_active`` is True) until
step 3 completes, and step 3 skips what step 1 already counted: a queued
message whose written objects' counters the transfer moved past its
versions is acked as a duplicate (its writes are in step 2's dump), not
applied and bumped a second time. A bootstrap restricted to some
``models`` therefore transfers only the counters of the objects it
dumps.

The same procedure serves as the *partial bootstrap* after a queue
decommission, a subscriber version-store death, or the message-loss
deadlock of §6.5. Targeted repair (``repro.repair``) is steps 1 and 2
for an audit's divergent ids only (:func:`transfer_objects`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import SynapseError


def bootstrap_subscriber(
    service: Any,
    publisher_name: Optional[str] = None,
    models: Optional[list] = None,
) -> int:
    """Synchronise ``service`` with its publisher(s); returns the number
    of objects bulk-applied in step 2.

    ``models`` restricts the bulk data phase to the named models — the
    *partial data bootstrap* used after publishing new attributes
    (§4.3), where only the affected model needs back-filling.
    """
    subscriber = service.subscriber
    if publisher_name is not None:
        apps = [publisher_name]
    else:
        apps = sorted({spec.from_app for spec in subscriber.specs.values()})
    if not apps:
        return 0

    subscriber.bootstrapping = True
    queue = subscriber.queue
    if queue is not None and queue.decommissioned:
        queue.recommission()

    control = service.ecosystem.control
    applied = 0
    for app in apps:
        if not control.known(app):
            raise SynapseError(
                f"cannot bootstrap {service.name!r}: publisher {app!r} unknown"
            )
        # Step 1 — bulk version transfer, answered by the publisher's
        # control-plane handler (which may live in another process).
        snapshot = control.bootstrap_snapshot(app)
        versions = snapshot["versions"]
        if models is None:
            service.subscriber_version_store.bulk_load(versions)
        subscriber.generations[app] = snapshot["generation"]

        # Step 2 — bulk data transfer of every subscribed model: the
        # publisher dumps each model as marshaled wire operations.
        for (from_app, model_name), spec in sorted(subscriber.specs.items()):
            if from_app != app:
                continue
            if models is not None and model_name not in models:
                continue
            dump = control.model_dump(app, model_name)
            if not dump["found"]:
                continue
            dumped_ids = set()
            for operation, row_id in zip(dump["operations"], dump["ids"]):
                subscriber.apply_operation(app, operation)
                dumped_ids.add(row_id)
                applied += 1
            if models is not None:
                # Step 1 for this model's objects only: a counter the
                # dump did not deliver the data of would make step 3
                # skip that object's queued writes.
                dumped = (subscriber.object_dep(app, op) for op in dump["operations"])
                service.subscriber_version_store.bulk_load(
                    {dep: versions[dep] for dep in dumped if dep in versions}
                )
            # Anti-entropy: drop local rows the publisher no longer has
            # (their delete messages may have been lost — without this, a
            # rebootstrap after the §6.5 incident could leave ghosts).
            # Skipped for multi-publisher models (Fig 3): no single
            # publisher's dump is authoritative for the full row set.
            if not spec.observer and not subscriber.is_multi_publisher(spec) \
                    and spec.model_cls.__mapper__ is not None:
                local_rows = spec.model_cls.__mapper__._do_where({}, None, None)
                for local_row in local_rows:
                    if local_row["id"] not in dumped_ids:
                        ghost_op = {
                            "operation": "delete",
                            "types": [model_name],
                            "id": local_row["id"],
                            "attributes": {},
                        }
                        subscriber.apply_operation(app, ghost_op)

    # Step 3 — process everything queued during the bulk phases.
    subscriber.drain()
    if queue is None or not len(queue):
        subscriber.bootstrapping = False
    # Bootstrap's bulk transfers bypass the WAL (steps 1 and 2 mutate
    # state without per-message records), so checkpoint the finished
    # state: a crash mid-bootstrap re-enters bootstrap, a crash after
    # this snapshot restores the bootstrapped replica.
    service.ecosystem.durability.snapshot()
    return applied


def transfer_objects(
    service: Any, app: str, model_name: str, ids: List[Any]
) -> List[Dict[str, Any]]:
    """Bootstrap steps 1 and 2 for ``ids`` of one model: the publisher
    reads each object's counter, then its row (a delete when it no
    longer holds one). Per object, under the subscriber's stripe lock,
    the operation lands unless the local counter is already past the
    transferred one, and the counter is raised to it — which releases a
    causal queue wedged behind a lost message. Returns the operations
    that landed.

    Like bootstrap, this runs on the subscriber's control path: the
    transfer sits outside the message order, so a worker applying the
    same object concurrently could be regressed (docs/recovery.md)."""
    subscriber = service.subscriber
    store = service.subscriber_version_store
    dump = service.ecosystem.control.model_dump(app, model_name, ids=ids)
    landed: List[Dict[str, Any]] = []
    if not dump["found"]:
        return landed
    versions = dump["versions"]
    for operation in dump["operations"]:
        hashed = subscriber.object_dep(app, operation)
        version = versions.get(hashed, 0)
        with subscriber._object_locks.lock_for(hashed):
            if store.ops(hashed) <= version:
                subscriber.apply_operation(app, operation)
                landed.append(operation)
            store.bulk_load({hashed: version})
    service.ecosystem.metrics.counter(
        f"repair.{service.name}.applied_objects"
    ).increment(len(landed))
    return landed


def recover_subscriber_version_store(service: Any) -> int:
    """Subscriber version-store death: restart the shards and run a
    partial bootstrap (§4.4)."""
    for shard in service.subscriber_version_store.kv.shards:
        shard.restart()
        shard.flushall()
    return bootstrap_subscriber(service)
