"""Semantics-aware message coalescing.

Consecutive queued writes to the same ``(app, model, id)`` collapse into
one message where the delivery mode allows it:

- **weak**: always safe. Subscribers apply fresh-or-discard per object,
  so delivering only the newest payload (with per-key max dependency
  versions) is indistinguishable from delivering both and discarding
  the older one.
- **causal / global**: safe only when the dependency union is preserved.
  The merged message carries, per dependency key, the max of the
  survivor's version and the absorbed's version discounted by the
  survivor's own increments (the absorbed write was emitted assuming
  the survivor had applied), and the *sum* of the constituents' counter
  increments (so downstream messages that counted on both bumps still
  become satisfiable). The
  structural hazard is a dependency cycle through a message queued
  *between* the two candidates (or in flight), in either direction:
  an intervener that depends on a key the earlier candidate increments
  would wait on a bump that now sits behind the intervener itself, and
  an absorbed (newer) write that depends on a key an intervener
  increments would — merged to the survivor's *earlier* position —
  wait on a bump queued behind itself. Such merges are rejected; an
  adjacent pair with no conflicting intervener is safe.

The survivor is always the *earlier* message: it keeps its uid,
position, and ``published_at`` (so lag measurements stay honest), and
records the absorbed uids in ``coalesced_uids`` for at-least-once
accounting.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.broker.message import Message


def coalesce_key(message: Message) -> Optional[Tuple[str, str, Any]]:
    """Index key for coalescing, or ``None`` if the message is not a
    candidate (multi-op transactions, deletes, bootstrap/repair traffic
    keep their own envelope)."""
    if message.bootstrap or message.repair:
        return None
    if len(message.operations) != 1:
        return None
    operation = message.operations[0]
    if operation.get("operation") == "delete":
        return None
    types = operation.get("types") or []
    if not types:
        return None
    return (message.app, types[0], operation.get("id"))


def dep_keys(message: Message) -> set:
    """Every dependency key a message waits on (write + external)."""
    return set(message.dependencies) | set(message.external_dependencies)


def counter_increments(message: Message) -> Dict[str, int]:
    """How much applying this message bumps each dependency counter
    (see :meth:`Message.counter_increments`)."""
    return dict(message.counter_increments())


def merge_into(survivor: Message, absorbed: Message) -> None:
    """Fold ``absorbed`` (the newer write) into ``survivor``.

    Attributes merge newest-wins, the operation stays a create if the
    survivor was one (the row must still come into existence),
    dependency versions take the per-key max, and counter increments
    sum so version arithmetic downstream is preserved. Every merged
    field is a fresh container handed to :meth:`Message.rewrite`, which
    also drops the survivor's cached body: its next WAL record
    (``coal``, later ``apply``) re-encodes the post-merge payload.
    """
    old_op = survivor.operations[0]
    new_op = absorbed.operations[0]
    attributes = dict(old_op.get("attributes") or {})
    attributes.update(new_op.get("attributes") or {})
    merged_op = dict(new_op)
    merged_op["attributes"] = attributes
    if old_op.get("operation") == "create":
        merged_op["operation"] = "create"

    surv_incr = counter_increments(survivor)
    increments = dict(surv_incr)
    for dep, amount in counter_increments(absorbed).items():
        increments[dep] = increments.get(dep, 0) + amount

    # The absorbed message's dependency versions were emitted *after*
    # the survivor's publisher-side bumps, so they assume the survivor
    # has already applied — including its own object and the shared
    # session-user key. Both now land in one atomic apply: discount the
    # survivor's increments per key, or the merged message would wait
    # on bumps it itself carries (a self-deadlock). Per-key max with
    # the survivor's own requirement keeps every external prerequisite.
    dependencies = dict(survivor.dependencies)
    for dep, version in absorbed.dependencies.items():
        version -= surv_incr.get(dep, 0)
        if version > dependencies.get(dep, -1):
            dependencies[dep] = version
    external = dict(survivor.external_dependencies)
    for dep, version in absorbed.external_dependencies.items():
        if version > external.get(dep, -1):
            external[dep] = version

    survivor.rewrite(
        operations=[merged_op],
        increments=increments,
        dependencies=dependencies,
        external_dependencies=external,
        coalesced_uids=[
            *survivor.coalesced_uids, absorbed.uid, *absorbed.coalesced_uids
        ],
    )
    if survivor.trace is None and absorbed.trace is not None:
        survivor.trace = absorbed.trace


def raised_waits(survivor: Message, absorbed: Message) -> set:
    """Dependency keys on which a merge would wait *harder* than the
    survivor already does at its queue position.

    Per key, the absorbed write's requirement is discounted by the
    survivor's own increments — exactly as :func:`merge_into` will
    record it — and kept only where it exceeds the survivor's current
    requirement. Those are the waits the merge would move from the
    absorbed message's tail position up to the survivor's earlier one;
    if the bump satisfying such a wait is carried by a message queued
    in between, the merged survivor deadlocks behind itself.
    """
    surv_incr = counter_increments(survivor)
    waits = set()
    for dep, version in absorbed.dependencies.items():
        if version - surv_incr.get(dep, 0) > survivor.dependencies.get(dep, -1):
            waits.add(dep)
    for dep, version in absorbed.external_dependencies.items():
        if version > survivor.external_dependencies.get(dep, -1):
            waits.add(dep)
    return waits


def union_conflicts(
    survivor: Message, intervener: Message, raised: frozenset = frozenset()
) -> bool:
    """Would coalescing past ``intervener`` break the dependency union?

    Two directed cycles, either of which rejects the merge:

    - the merged message's counter bumps land only when *it* applies,
      so an intervener that waits on any key the survivor increments
      would wait on a bump queued behind itself;
    - the absorbed write's newly raised waits (``raised``, see
      :func:`raised_waits`) move up to the survivor's earlier position,
      so an intervener that *increments* any of those keys would carry
      a bump the merged survivor waits on from ahead of it.

    Conservative: any key overlap rejects the merge.
    """
    if set(survivor.dependencies) & dep_keys(intervener):
        return True
    return bool(raised and raised & set(counter_increments(intervener)))
