"""Subscriber bootstrapping and recovery (§4.4).

Three steps: (1) the publisher's version-store counters and generation
are transferred, and the subscriber *enters* that generation (flush,
then adopt, as the live generation gate does — after draining what is
still queued of the old one); (2) subscribed objects are dumped from
the publisher's DB and applied locally; (3) messages published
meanwhile are drained. Until step 3 completes (``bootstrap_active``
is True) a message waits for nothing and lands fresh-or-discard per
written object, so an older queued write never overwrites a newer one;
its other counters (a session user's, ``__global__``) bump as an
ordered apply bumps them. Step 3 skips what the transfer already
holds: a queued message whose written objects' counters the transfer
moved past its versions is acked as a duplicate (its writes are in the
dump).

A ``scope`` — ``{(publisher, model_name): None | [ids]}``, ``None``
meaning the whole model — restricts step 2. A full bootstrap loads
every counter up front and lands every dumped row. A scoped one lands
each dumped row, under the object's stripe lock, unless the local
counter is already past the snapshot's, and then raises that counter.
After step 3, and only when nothing is queued or unacked, it raises the
snapshot's counters that no write-message carries for an object it
writes: session users, ``__global__``, objects of unpublished models. A
message published after the snapshot carries versions at or past them,
and one versioned before it but not yet shipped still applies, because
no object counter outside the scope moved. The snapshot is read before
the dump, so a counter never claims more than the row that lands with
it.

The same procedure serves the partial bootstrap after a queue
decommission or a subscriber version-store death, the back-fill of a
newly published attribute (a model scope, §4.3), and targeted repair of
the §6.5 loss (``repro.repair``: the audit's divergent ids) — which is
also what a worker pool's give-up runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.dependencies import dep_name
from repro.errors import SynapseError
from repro.orm.model import table_for_type

#: (publisher, model_name) -> None (the whole model) or the ids to transfer.
Scope = Dict[Tuple[str, str], Optional[List[Any]]]


def bootstrap_subscriber(
    service: Any,
    publisher_name: Optional[str] = None,
    scope: Optional[Scope] = None,
    behind: Sequence[str] = (),
) -> List[Dict[str, Any]]:
    """Synchronise ``service`` with its publisher(s) — every one it
    subscribes to, ``publisher_name`` only, or those ``scope`` names;
    returns the dumped operations that landed in step 2.

    ``behind`` names counters (hashed dependencies) the subscriber is
    known to lag on — a repair passes its audit's deficits. For a
    publisher whose scope lists ids only, step 1 then reads those and
    the scope's objects' counters instead of every counter."""
    subscriber = service.subscriber
    store = service.subscriber_version_store
    hasher = service.ecosystem.hasher
    if publisher_name is not None:
        apps = [publisher_name]
    else:
        apps = sorted({app for app, _model in (scope or subscriber.specs)})
    if not apps:
        return []

    subscriber.bootstrapping = True
    queue = subscriber.queue
    if queue is not None and queue.decommissioned:
        queue.recommission()

    control = service.ecosystem.control
    landed: List[Dict[str, Any]] = []
    unwritten: List[Dict[str, int]] = []
    for app in apps:
        if not control.known(app):
            raise SynapseError(
                f"cannot bootstrap {service.name!r}: publisher {app!r} unknown"
            )
        # Step 1 — version transfer, answered by the publisher's
        # control-plane handler (which may live in another process).
        in_scope = [(model, ids) for (from_app, model), ids in (scope or {}).items()
                    if from_app == app]
        deps = None
        if in_scope and all(ids is not None for _model, ids in in_scope):
            deps = [hasher.hash(dep_name(app, table_for_type(model), row_id))
                    for model, ids in in_scope for row_id in ids] + list(behind)
        snapshot = control.bootstrap_snapshot(app, deps)
        if snapshot["generation"] > subscriber.generations.get(app, 1):
            # Finish the old generation before leaving it, as the live
            # gate does: its queued writes apply against its counters.
            subscriber.drain()
            if deps is not None:
                # The flush leaves every counter behind: read them all.
                snapshot = control.bootstrap_snapshot(app)
            subscriber.enter_generation(app, snapshot["generation"])
        versions = snapshot["versions"]
        if scope is None:
            store.bulk_load(versions)
        else:
            unwritten.append(_unwritten(service, app, versions))

        # Step 2 — data transfer: the publisher dumps each model in
        # scope as marshaled wire operations (a delete for a requested
        # id it no longer holds).
        for (from_app, model_name), spec in sorted(subscriber.specs.items()):
            if from_app != app or (scope is not None and (app, model_name) not in scope):
                continue
            ids = None if scope is None else scope[(app, model_name)]
            dump = control.model_dump(app, model_name, ids=ids)
            if not dump["found"]:
                continue
            for operation in dump["operations"]:
                if scope is None:
                    subscriber.apply_operation(app, operation)
                    landed.append(operation)
                    continue
                hashed = subscriber.object_dep(app, operation)
                version = versions.get(hashed, 0)
                with subscriber._object_locks.lock_for(hashed):
                    if store.ops(hashed) <= version:
                        subscriber.apply_operation(app, operation)
                        landed.append(operation)
                    store.bulk_load({hashed: version})
            # Anti-entropy: drop local rows the publisher no longer has
            # (their delete messages may have been lost — without this, a
            # rebootstrap after the §6.5 incident could leave ghosts).
            # Skipped for multi-publisher models (Fig 3): no single
            # publisher's dump is authoritative for the full row set.
            if ids is None and not spec.observer and not subscriber.is_multi_publisher(spec) \
                    and spec.model_cls.__mapper__ is not None:
                dumped_ids = set(dump["ids"])
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
    if queue is None or not (len(queue) or queue.unacked_count):
        for counters in unwritten:
            store.bulk_load(counters)
    if queue is None or not len(queue):
        subscriber.bootstrapping = False
    # Bootstrap's bulk transfers bypass the WAL (steps 1 and 2 mutate
    # state without per-message records), so checkpoint the finished
    # state: a crash mid-bootstrap re-enters bootstrap, a crash after
    # this snapshot restores the bootstrapped replica.
    service.ecosystem.durability.snapshot()
    return landed


def _unwritten(service: Any, app: str, versions: Dict[str, int]) -> Dict[str, int]:
    """The counters of ``versions`` that no write-message of ``app``
    carries for an object it writes — ``__global__``, and objects of
    models ``app`` does not publish (session users, read dependencies):
    raising one cannot make a message still to come read as applied.
    Under a folded hash space no counter can be told apart, so none is
    returned."""
    if service.ecosystem.hasher.space is not None:
        return {}
    published = {table_for_type(model) for model in service.broker.published_models(app)}
    return {
        dep: ops for dep, ops in versions.items()
        if dep.partition("/")[2].partition("/")[0] not in published
    }


def recover_subscriber_version_store(service: Any) -> int:
    """Subscriber version-store death: restart the shards and run a
    partial bootstrap (§4.4); returns the rows it landed."""
    for shard in service.subscriber_version_store.kv.shards:
        shard.restart()
        shard.flushall()
    return len(bootstrap_subscriber(service))
