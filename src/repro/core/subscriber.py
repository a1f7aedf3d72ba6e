"""The Synapse subscriber engine (§4.1, §4.2).

Workers take write messages off the service's durable queue, wait until
the message's dependencies are satisfied in the local version store
(per the subscription's delivery mode), apply the operations through the
local ORM (firing the application's active-model callbacks), increment
the dependency counters, and ack.

Weak mode never waits: it applies fresh updates and discards stale ones.
During bootstrap every message is handled with weak semantics (§3.2).

A subscription is read in one place. :class:`SubscriptionSpec` owns the
field map in both directions — ``hydrate`` (remote → local, through the
model, so ``as:`` renames and virtual setters run) and ``project``
(local → remote, what the audit digest hashes). The per-message step —
land the operations, move the counters, remember the uid — is
:meth:`SynapseSubscriber._land` + :meth:`SynapseSubscriber._count`;
the live apply and WAL replay (:meth:`SynapseSubscriber.replay_apply`)
both run it and differ in the persist step they hand it: ``_save``
(through the ORM) or ``_store_raw`` (mapper storage writes).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broker.message import Message
from repro.core.delivery import (
    CAUSAL,
    GLOBAL,
    GLOBAL_OBJECT,
    WEAK,
    check_subscription_mode,
    effective_dependencies,
)
from repro.core.dependencies import dep_name
from repro.core.marshal import marshal_attributes, wire_value
from repro.errors import DurabilityError, QueueDecommissioned, SubscriptionError
from repro.orm.callbacks import run_callbacks
from repro.orm.model import table_for_type
from repro.runtime.interleave import observe_point, yield_point
from repro.runtime.tracing import (
    STAGE_APPLY,
    STAGE_BATCH,
    STAGE_DEP_WAIT,
    activate_trace,
    trace_now,
)


@dataclass
class SubscriptionSpec:
    """One ``subscribe from:`` declaration on a model (§3.1)."""

    from_app: str
    model_name: str
    model_cls: type
    #: remote attribute -> local attribute (identity unless ``as:`` used).
    fields: Dict[str, str]
    mode: str
    observer: bool = False

    def hydrate(self, operation: Dict[str, Any]) -> Any:
        """Remote → local: the model instance a wire operation
        describes — the stored row (or a new record under the
        operation's id) with every subscribed attribute the operation
        carries written *through the model*, so a renamed attribute
        lands on its local name and a virtual one runs its setter
        (§3.1). Deleting a persisted row writes nothing first. The body
        is shared by every local queue and every redelivery: the
        instance gets its list/dict values as private copies."""
        instance = self.model_cls.find_or_initialize(operation["id"])
        if self.observer or operation["operation"] != "delete":
            attributes = operation["attributes"]
            for remote, local in self.fields.items():
                if remote in attributes:
                    setattr(instance, local, wire_value(attributes[remote]))
        return instance

    @cached_property
    def readable(self) -> Dict[str, str]:
        """The part of the field map that can be read back: a virtual
        local attribute with a setter but no getter has no way back to
        the publisher's value, so it is not audited."""
        virtuals = self.model_cls._virtual_fields
        return {
            remote: local
            for remote, local in self.fields.items()
            if local not in virtuals or virtuals[local].readable_on(self.model_cls)
        }

    def project(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Local → remote: a stored row under the publisher's attribute
        names, read through the model (virtual getters run) exactly as
        the publisher marshals its own side."""
        readable = self.readable
        values = marshal_attributes(self.model_cls, row, readable.values())
        return {remote: values[local] for remote, local in readable.items()}


def _by_seq(message: Message) -> int:
    return message.seq


#: The scope of an apply that needs neither an active trace nor an
#: engine transaction around it.
_PLAIN = nullcontext()

#: :meth:`SynapseSubscriber._land` stage -> the interleave event the live
#: apply emits for it, per fresh-or-discard delivery class.
_WEAK_EVENTS = {
    "claim": "apply.weak.claim",
    "discarded": "apply.weak.discarded",
    "fresh": "apply.weak",
}
_REPAIR_EVENTS = {"fresh": "apply.repair"}


def _untold(stage: str, dep: str, version: int) -> None:
    """Nobody listens: an ordered apply has no per-object decisions,
    and WAL replay reports none."""


class SynapseSubscriber:
    """Per-service subscribing engine."""

    def __init__(self, service: Any) -> None:
        self.service = service
        #: (from_app, model_name) -> spec
        self.specs: Dict[Tuple[str, str], SubscriptionSpec] = {}
        #: per-publisher delivery mode (weakest spec wins).
        self.app_modes: Dict[str, str] = {}
        #: per-publisher generation last seen.
        self.generations: Dict[str, int] = {}
        self.bootstrapping = False
        registry = service.ecosystem.metrics
        self.metrics = registry
        self._processed = registry.counter(f"subscriber.{service.name}.processed")
        self._stale = registry.counter(f"subscriber.{service.name}.stale_discarded")
        self._duplicates = registry.counter(f"subscriber.{service.name}.duplicates")
        #: Objects healed by anti-entropy repair messages (targeted
        #: repair instead of a full re-bootstrap).
        self._repaired = registry.counter(f"repair.{service.name}.applied_objects")
        #: Rollback-recovery redo writes that failed a second time; the
        #: divergence they leave behind is anti-entropy's to heal.
        self._redo_failed = registry.counter(f"subscriber.{service.name}.redo_failed")
        #: Time applied messages spent blocked on dependency counters.
        self.dep_wait = registry.histogram(f"subscriber.{service.name}.dep_wait")
        #: Time spent applying operations through the local ORM.
        self.apply_time = registry.histogram(f"subscriber.{service.name}.apply")
        self.queue = None
        # At-least-once deduplication: remember recently-applied message
        # uids so a redelivery after a missed ack is a no-op (applying
        # twice would double-increment the dependency counters).
        # Regression note: the deque/set pair used to be mutated without a
        # lock; N pool workers marking applied concurrently could pop the
        # same oldest uid or interleave deque/set updates, leaving the set
        # out of sync with the deque (phantom or lost dedup entries).
        self._applied_lock = threading.Lock()
        self._applied_uids: "deque[str]" = deque(maxlen=4096)
        self._applied_uid_set: set = set()
        # Per-object serialisation of the weak/repair fresh-or-discard
        # paths: the stale check, the ORM write and the counter
        # fast-forward must be one atomic step per object, or two
        # parallel workers can interleave check-then-apply and land an
        # older version on top of a newer one.
        self._object_locks: Dict[str, threading.Lock] = {}
        self._object_locks_guard = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_subscription(self, spec: SubscriptionSpec) -> None:
        service = self.service
        published = service.broker.published_fields(spec.from_app, spec.model_name)
        if published is None:
            raise SubscriptionError(
                f"{service.name!r} subscribes to {spec.from_app}/{spec.model_name} "
                "but that publisher is not deployed (publishers deploy first, §4.3)"
            )
        unknown = sorted(set(spec.fields) - set(published))
        if unknown:
            raise SubscriptionError(
                f"{service.name!r} subscribes to unpublished attributes "
                f"{unknown} of {spec.from_app}/{spec.model_name} (§4.5)"
            )
        publisher_mode = service.broker.publisher_mode(spec.from_app) or CAUSAL
        check_subscription_mode(spec.mode, publisher_mode)
        current = self.app_modes.get(spec.from_app)
        if current is not None and current != spec.mode:
            # Delivery modes are chosen per publisher (§3.2): one app's
            # message stream cannot be half-causal, half-weak.
            raise SubscriptionError(
                f"{service.name!r} already subscribes to {spec.from_app!r} "
                f"in {current!r} mode; cannot mix with {spec.mode!r}"
            )
        self.specs[(spec.from_app, spec.model_name)] = spec
        self.app_modes[spec.from_app] = spec.mode
        self.queue = service.broker.bind(service.name, spec.from_app)

    def spec_for(self, app: str, types: List[str]) -> Optional[SubscriptionSpec]:
        """Match the most-derived subscribed type in the inheritance chain
        (polymorphic consumption, §4.1)."""
        for type_name in types:
            spec = self.specs.get((app, type_name))
            if spec is not None:
                return spec
        return None

    # ------------------------------------------------------------------
    # Synchronous draining (deterministic execution)
    # ------------------------------------------------------------------

    @property
    def batch_limit(self) -> int:
        """The most deliveries one apply call is handed: 1, unless the
        ecosystem has flow control — then its ``batch_max``."""
        controller = getattr(self.service.ecosystem, "flow", None)
        return 1 if controller is None else controller.config.batch_max

    def drain(self, max_rounds: int = 1000) -> int:
        """Process queued messages until quiescent; returns the number
        processed. Messages whose dependencies cannot be satisfied stay
        queued (the §6.5 deadlock scenario when messages were lost).

        Deliberately not the worker step (``SubscriberWorkerPool
        .process``/``.settle``, docs/delivery_semantics.md): a drain
        empties the queue, holds what it could not apply across rounds
        and re-queues it once at the end, so it has nothing to rotate
        and never gives up; and its WAL step spans a round, not a
        popped batch — a per-batch step measured 5 % slower
        ``@ wal_off`` (PR 21)."""
        queue = self.queue
        if queue is None:
            return 0
        limit = self.batch_limit
        flow = queue.flow
        processed = 0
        pending: List[Message] = []
        for _ in range(max_rounds):
            try:
                while True:
                    batch = queue.pop_many(limit)
                    if not batch:
                        break
                    pending.extend(batch)
            except QueueDecommissioned:
                # Messages popped in earlier rounds must not leak as
                # phantom in-flight deliveries: return them (a tolerated
                # no-op on the dead queue) before propagating.
                for message in pending:
                    queue.nack(message)
                raise
            progress = False
            pending.sort(key=_by_seq)
            remaining: List[Message] = []
            # One WAL step (nothing without durability): the ``apply``
            # records of what this round popped and the acks that settle
            # it reach the kernel in one write when the block ends.
            with queue.step:
                for start in range(0, len(pending), limit):
                    chunk = pending[start:start + limit]
                    done, retry, _errors = self.process_batch(chunk)
                    for message in done:
                        queue.ack(message)
                        processed += 1
                        progress = True
                    remaining.extend(retry)
                    if flow is not None:
                        flow.batch_size.record(len(chunk))
            pending = remaining
            if not progress and not len(queue):
                break
        for message in pending:
            queue.nack(message)
        if self.bootstrapping and not len(queue):
            self.bootstrapping = False
        return processed

    def stuck_dependencies(self) -> Dict[str, Tuple[int, int]]:
        """Unsatisfied deps of queued messages (deadlock diagnostics)."""
        if self.queue is None:
            return {}
        out: Dict[str, Tuple[int, int]] = {}
        store = self.service.subscriber_version_store
        for message in self.queue.peek_all():
            required = {**message.dependencies, **message.external_dependencies}
            out.update(store.missing(required))
        return out

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------

    def process_message(self, message: Message, wait_timeout: float = 0.0) -> bool:
        """Apply one message if its dependencies allow; True when done.
        An apply error propagates to the caller."""
        done, _retry, _errors, failure = self._handle([message], wait_timeout)
        if failure is not None:
            raise failure
        return bool(done)

    def process_batch(
        self, messages: List[Message], wait_timeout: float = 0.0
    ) -> Tuple[List[Message], List[Message], int]:
        """Verify and apply a ``pop_many`` batch; returns
        ``(done, retry, errors)`` — ``done`` should be acked, ``retry``
        nacked (or given up on), ``errors`` counts apply failures."""
        done, retry, errors, _failure = self._handle(messages, wait_timeout)
        return done, retry, errors

    def _handle(
        self, messages: List[Message], wait_timeout: float
    ) -> Tuple[List[Message], List[Message], int, Optional[Exception]]:
        """The subscriber algorithm (§4.2) over one popped batch; a
        single message is a batch of one. Returns ``process_batch``'s
        triple plus the exception behind ``errors``.

        Each message is classified once, in ``seq`` order. An ordered
        message is admitted when the store *plus the bumps earlier
        batch members will make* satisfies it, so in-batch causal
        chains (e.g. consecutive writes by the same session user) land
        together. One admitted message applies exactly as it would
        alone. Several apply in one engine transaction (group commit)
        when the local engine supports transactions; inside it,
        interleave events are record-only — the batch is one atomic
        step, and a suspended scheduler step while holding the engine
        mutex would deadlock the conformance harness.
        """
        done: List[Message] = []
        retry: List[Message] = []
        #: (message, weak) — admitted, in apply order.
        ready: List[Tuple[Message, bool]] = []
        #: Counter bumps the admitted members will make on apply.
        bumps: Dict[str, int] = {}
        #: (index in ``retry``, required map) of the first
        #: dependency-stalled message.
        blocked: Optional[Tuple[int, Dict[str, int]]] = None
        store = self.service.subscriber_version_store
        chained = len(messages) > 1
        if chained:
            messages = sorted(messages, key=_by_seq)
        for message in messages:
            if self.has_applied(message.uid):
                self._duplicates.increment()
                yield_point("dedup.duplicate", message=message)
                done.append(message)  # redelivered duplicate: safe to ack again
                continue
            if message.repair:
                # Anti-entropy repair: never waits (the whole point is to
                # heal counter deficits that would make waiting eternal) and
                # bypasses the generation gate, which could itself be
                # deadlocked behind the very divergence being repaired.
                self._apply_one(message, weak=False)
                done.append(message)
                continue
            if not self._generation_ready(message):
                retry.append(message)
                continue
            mode = self.app_modes.get(message.app, WEAK)
            if mode == WEAK:
                # Weak never waits, and fast-forwards instead of bumping.
                ready.append((message, True))
                continue
            # Bootstrap forces weak semantics (§3.2): apply without
            # waiting, but keep full counter accounting so the configured
            # mode resumes cleanly once in sync.
            if not (self.bootstrapping or message.bootstrap):
                # Non-weak modes never consult the written-object set.
                required = effective_dependencies(message.dependencies, mode, ())
                required.update(message.external_dependencies)
                yield_point("dep.check", message=message, required=required)
                wait_start = trace_now()
                if bumps:
                    satisfied = all(
                        store.ops(dep) + bumps.get(dep, 0) >= version
                        for dep, version in required.items()
                    )
                else:
                    satisfied = store.satisfied(required)
                if not satisfied:
                    if blocked is None:
                        blocked = (len(retry), required)
                    retry.append(message)
                    continue
                self._record_dep_wait(message, wait_start)
            ready.append((message, False))
            if chained:
                for dep, amount in message.counter_increments().items():
                    bumps[dep] = bumps.get(dep, 0) + amount

        if not ready and blocked is not None and wait_timeout > 0:
            # Nothing applicable right now: block on the first stalled
            # member's requirements instead of spinning nack/pop rounds
            # that inflate delivery counts into premature give-ups.
            index, required = blocked
            wait_start = trace_now()
            if store.wait_satisfied(required, wait_timeout):
                self._record_dep_wait(retry[index], wait_start)
                ready.append((retry.pop(index), False))

        if not ready:
            return done, retry, 0, None
        several = len(ready) > 1
        grouped = several and self._can_group_commit()
        if several:
            yield_point("batch.apply", size=len(ready), group_commit=grouped)
            batch_start = trace_now()
        completed: List[Tuple[Message, Optional[Dict[str, Any]]]] = []
        errors, failure = 0, None
        try:
            with self._group_commit() if grouped else _PLAIN:
                for message, weak in ready:
                    completed.append(
                        (message, self._apply_one(message, weak, record_only=several))
                    )
        except DurabilityError:
            # Not an apply error to count and retry: the log is
            # fail-stop, so this process's memory is abandoned and the
            # WAL prefix is the truth. Out of here, untouched.
            raise
        except Exception as exc:
            # The first failure ends the batch: later members may have
            # been admitted against the bumps of the one that failed.
            errors, failure = 1, exc
            retry.extend(message for message, _ in ready[len(completed):])
            if grouped:
                self._redo_after_rollback(completed)
        done.extend(message for message, _ in completed)
        if several:
            elapsed = trace_now() - batch_start
            for message, _ in completed:
                if message.trace is not None:
                    message.trace.add(STAGE_BATCH, batch_start, elapsed)
            yield_point("batch.applied", size=len(completed), retried=len(retry))
        return done, retry, errors, failure

    def _record_dep_wait(self, message: Message, wait_start: float) -> None:
        """One ``dep_wait`` sample (and span, when traced) per ordered
        message — near zero when nothing blocked."""
        waited = trace_now() - wait_start
        trace = message.trace
        if trace is None:
            self.dep_wait.record(waited)
            return
        # Active so an over-threshold wait keeps this uid as exemplar.
        with activate_trace(trace):
            self.dep_wait.record(waited)
        trace.add(STAGE_DEP_WAIT, wait_start, waited)

    def _apply_one(
        self, message: Message, weak: bool, record_only: bool = False
    ) -> Optional[Dict[str, Dict[str, Any]]]:
        """Apply one admitted message: engine writes, counter bumps,
        bookkeeping. ``record_only=True`` (inside a batch) downgrades
        the interleave events to observe-only: the group-commit
        transaction may hold the engine mutex. Counter bumps interleave
        per message, so in-batch dependents see their deps land before
        their own apply event. Returns :meth:`_land`'s redo set for
        rollback recovery."""
        # Traced message: make the trace the thread's current trace so an
        # over-threshold histogram observation anywhere in the apply path
        # captures this message's uid as its exemplar.
        with activate_trace(message.trace) if message.trace is not None else _PLAIN:
            emit = observe_point if record_only else yield_point
            ordered = not (weak or message.repair)
            if ordered:
                emit("apply", message=message)
                tell = _untold
                # Atomically when the local engine supports transactions:
                # a multi-write publisher transaction then lands as one
                # subscriber transaction (§4.2).
                several = len(message.operations) > 1
                scope = (
                    self._group_commit()
                    if several and self._can_group_commit() else _PLAIN
                )
            else:
                tell = self._teller(message, emit)
                scope = _PLAIN
            start = trace_now()
            with scope:
                written = self._land(message, weak, self._save, tell)
            if message.repair:
                self._repaired.increment(len(written))
            if not weak:
                elapsed = trace_now() - start
                self.apply_time.record(elapsed)
                if message.trace is not None:
                    message.trace.add(STAGE_APPLY, start, elapsed)
            self._count(message, ordered, record_only)
            self._processed.increment()
            emit("msg.finished", message=message)
            monitor = getattr(self.service.ecosystem, "monitor", None)
            if monitor is not None:
                monitor.observe_applied(self.service.name, message)
            if message.trace is not None:
                self.service.ecosystem.tracer.record(message.trace)
            return written

    def _redo_after_rollback(
        self, completed: List[Tuple[Message, Optional[Dict[str, Dict[str, Any]]]]]
    ) -> None:
        """A mid-batch engine fault rolled back the whole group-commit
        transaction, but the completed prefix already bumped its
        counters and entered the dedup window — re-processing would
        dedup-skip it and its engine writes would be lost. Redo just
        those writes outside any transaction: applies are idempotent
        upserts, and the per-object freshness check skips objects a
        concurrent fresher apply has already moved past. The ceiling
        must budget for *every* completed sibling's bumps on the key —
        a later batch member's session read-dep bumps the same counter,
        and counting only the message's own increments would mistake
        those sibling bumps for a concurrent fresher apply and skip a
        redo whose write is genuinely lost."""
        batch_bumps: Dict[str, int] = {}
        for message, _ in completed:
            for dep, amount in message.counter_increments().items():
                batch_bumps[dep] = batch_bumps.get(dep, 0) + amount
        for message, written in completed:
            increments = message.counter_increments()
            redo = self.object_deps(message) if written is None else written
            for hashed, operation in redo.items():
                version = message.dependencies.get(hashed, 0)
                ceiling = version + batch_bumps.get(
                    hashed, increments.get(hashed, 1)
                )
                try:
                    with self._object_lock(hashed):
                        if self.service.subscriber_version_store.ops(hashed) > ceiling:
                            continue
                        self.apply_operation(message.app, operation)
                except Exception:
                    # A redo that fails again must not abandon the
                    # remaining redos, and above all must not escape to
                    # the worker loop: every completed message is
                    # already counted (deduped, counters bumped), so
                    # a batch-wide nack would have its redelivery
                    # dedup-skip while the rolled-back engine write —
                    # and every redo after this one — is silently lost.
                    # Count it and let anti-entropy repair the object.
                    self._redo_failed.increment()

    def _count(self, message: Message, bump: bool, record_only: bool = False) -> None:
        """Move the counters and remember the uid once a message's
        writes have landed (``record_only`` as in :meth:`_apply_one`).
        ``bump`` increments every own-app dependency; externals are
        never bumped."""
        durability = getattr(self.service.ecosystem, "durability", None)
        if durability is not None:
            # Before the bump: the bump is what releases a dependent
            # message, and a dependent's record overtaking this one
            # would make replay land the older write last.
            durability.log_apply(self.service.name, message)
        if bump:
            increments = message.counter_increments()
            if self.app_modes.get(message.app) == GLOBAL:
                # The global counter is the gate that admits this
                # message's successor, so it is bumped after the object
                # counters: once the gate opens, every bump of every
                # earlier message has landed. The order is set here, not
                # read off the wire, which carries dependencies in
                # canonical key order (``__global__`` first).
                gate = self.service.ecosystem.hasher.hash(GLOBAL_OBJECT)
                if gate in increments:
                    increments = dict(increments)
                    increments[gate] = increments.pop(gate)
            self.service.subscriber_version_store.apply_counts(
                increments, record_only
            )
        self._mark_applied(message.uid)

    def _can_group_commit(self) -> bool:
        db = self.service.database
        return (
            db is not None
            and getattr(db, "supports_transactions", False)
            and db.current_transaction() is None
        )

    @contextmanager
    def _group_commit(self):
        """One engine transaction around the block's writes: a
        multi-operation message or a multi-message batch. Callers
        check :meth:`_can_group_commit` first.

        Views buffer the whole group commit and fold once after it
        lands, so each derived aggregate updates — and each cache key
        is written — once per commit, never mid-transaction."""
        views = self.service.views
        if views is not None:
            views.begin_batch()
        try:
            with self.service.database.begin():
                yield
        except Exception:
            # The engine rolled back: drop the buffered transitions
            # (a redo re-enters on_applied with fresh post-rollback
            # row states).
            if views is not None:
                views.abort_batch()
            raise
        if views is not None:
            views.commit_batch()

    def force_apply(self, message: Message) -> None:
        """Give up waiting for a late/lost dependency and apply anyway
        (the configurable-timeout semantics recommended in §6.5: causal
        is timeout=∞, weak is timeout=0, this is anything in between)."""
        if not self.has_applied(message.uid):
            self._apply_one(message, weak=False)

    def has_applied(self, uid: str) -> bool:
        """Is ``uid`` in the at-least-once dedup window?"""
        with self._applied_lock:
            return uid in self._applied_uid_set

    def applied_uids(self) -> List[str]:
        """The dedup window, oldest first (what a snapshot carries)."""
        with self._applied_lock:
            return list(self._applied_uids)

    def restore_applied(self, uids: List[str]) -> None:
        """Re-enter a snapshot's dedup window."""
        for uid in uids:
            self._mark_applied(uid)

    def _mark_applied(self, uid: str) -> None:
        with self._applied_lock:
            if uid in self._applied_uid_set:
                return
            if len(self._applied_uids) == self._applied_uids.maxlen:
                oldest = self._applied_uids.popleft()
                self._applied_uid_set.discard(oldest)
            self._applied_uids.append(uid)
            self._applied_uid_set.add(uid)

    def _object_lock(self, hashed_dep: str) -> threading.Lock:
        with self._object_locks_guard:
            lock = self._object_locks.get(hashed_dep)
            if lock is None:
                lock = threading.Lock()
                self._object_locks[hashed_dep] = lock
            return lock

    def object_deps(self, message: Message) -> Dict[str, Dict[str, Any]]:
        """hashed object dep -> operation, for the written objects."""
        hasher = self.service.ecosystem.hasher
        out: Dict[str, Dict[str, Any]] = {}
        for operation in message.operations:
            table = table_for_type(operation["types"][0])
            hashed = hasher.hash(dep_name(message.app, table, operation["id"]))
            out[hashed] = operation
        return out

    def _land(
        self,
        message: Message,
        weak: bool,
        persist: Callable[[SubscriptionSpec, str, Any], None],
        tell: Callable[..., None] = _untold,
    ) -> Optional[Dict[str, Dict[str, Any]]]:
        """Land one message's operations — the per-class half of the
        subscriber algorithm (§4.2), run by the live apply and by WAL
        replay alike. ``persist(spec, kind, instance)`` is how a
        hydrated instance reaches the engine; ``tell(stage, dep,
        version)`` hears each per-object decision.

        An ordered message lands every operation; returns None. Weak
        delivery (§3.2) and anti-entropy repair (``repro.repair``) are
        fresh-or-discard per written object: apply unless the local
        replica is already ahead, then fast-forward the object's
        counter — a repair message heals it to the carried version even
        when the object was stale-skipped, so increments lost with
        dropped messages (§6.5) stop deadlocking causal delivery
        without a re-bootstrap. Returns {hashed dep: operation} for the
        operations actually applied."""
        if not (weak or message.repair):
            for operation in message.operations:
                self._land_operation(message.app, operation, persist)
            return None
        store = self.service.subscriber_version_store
        increments = message.counter_increments()
        applied: Dict[str, Dict[str, Any]] = {}
        for hashed, operation in self.object_deps(message).items():
            version = message.dependencies.get(hashed, 0)
            tell("claim", hashed, version)
            with self._object_lock(hashed):
                if store.is_stale(hashed, version):
                    tell("discarded", hashed, version)
                    if not message.repair:
                        continue
                else:
                    tell("fresh", hashed, version)
                    self._land_operation(message.app, operation, persist)
                    applied[hashed] = operation
                # A coalesced message stands in for several publisher
                # bumps: fast-forward past all of them, or the lag audit
                # would report a phantom per-merge counter deficit.
                store.fast_forward(
                    hashed, version + max(0, increments.get(hashed, 1) - 1)
                )
        return applied

    def _teller(self, message: Message, claim: Callable[..., None]) -> Callable[..., None]:
        """What the live apply does on hearing :meth:`_land`'s
        decisions about a weak or repair message: count the discards
        and emit the interleave events — through ``claim`` (which may
        pause) for the claim, made before the object lock is taken,
        record-only for the ones made under it."""
        events = _REPAIR_EVENTS if message.repair else _WEAK_EVENTS

        def tell(stage: str, dep: str, version: int) -> None:
            if stage == "discarded":
                self._stale.increment()
            label = events.get(stage)
            if label is not None:
                (claim if stage == "claim" else observe_point)(
                    label, message=message, dep=dep, version=version
                )

        return tell

    def replay_apply(self, message: Message) -> None:
        """Restore: land one logged apply again — the live step with
        the raw persist. No callbacks (every cascade they produced is
        already its own log record), no write the publisher intercepts,
        no view hook (views rebuild after restore), no interleave event
        of this module, no subscriber metric; bootstrap-forced-weak
        applies bumped like ordered ones, so only the configured mode
        decides ``weak``."""
        weak = self.app_modes.get(message.app, WEAK) == WEAK
        self._land(message, weak, self._store_raw)
        self._count(message, bump=not (weak or message.repair))

    def _generation_ready(self, message: Message) -> bool:
        """Handle publisher generation bumps (§4.4): older-generation
        messages must all be processed, then the app's dependency
        counters are flushed before the new generation flows."""
        current = self.generations.get(message.app, 1)
        if message.generation < current:
            return True  # stale generation: process (weakly harmless)
        if message.generation == current:
            return True
        if self.queue is not None:
            # The gate must see *in-flight* deliveries too: an older-
            # generation message a parallel worker has popped but not yet
            # acked is no longer queued, and flushing the app's counters
            # while it is mid-apply wipes state its apply is about to
            # read and bump. (The message under evaluation is itself in
            # the unacked table; its equal generation excludes it.)
            pending = self.queue.peek_all() + self.queue.peek_unacked()
            for queued in pending:
                if queued.app == message.app and queued.generation < message.generation:
                    yield_point(
                        "generation.deferred",
                        message=message,
                        blocked_on=queued,
                    )
                    return False
        yield_point(
            "generation.flush", app=message.app, generation=message.generation
        )
        self.enter_generation(message.app, message.generation)
        durability = getattr(self.service.ecosystem, "durability", None)
        if durability is not None:
            durability.log_gen(
                self.service.name, message.app, message.generation
            )
        return True

    def enter_generation(self, app: str, generation: int) -> None:
        """Flush ``app``'s dependency counters and adopt its new
        generation (live gate and ``gen`` record replay)."""
        self._flush_app_dependencies(app)
        self.generations[app] = generation

    def _flush_app_dependencies(self, app: str) -> None:
        store = self.service.subscriber_version_store
        if self.service.ecosystem.hasher.space is None:
            for shard in store.kv.shards:
                for key in shard.keys(f"s:{app}/"):
                    shard.delete(key)
            if self.app_modes.get(app) == GLOBAL:
                # The global-ordering dependency carries no app prefix,
                # so the prefix sweep above misses it. The bumped
                # publisher restarts global versions at 0; left at its
                # old high value, the counter makes every new-generation
                # message trivially "satisfied" and the total order
                # silently evaporates.
                hashed = self.service.ecosystem.hasher.hash(GLOBAL_OBJECT)
                for shard in store.kv.shards:
                    shard.delete(store._key(hashed))
        else:
            store.flush()  # hashed space: cannot tell apps apart

    # ------------------------------------------------------------------
    # Landing one operation: one hydrate step, two persists
    # ------------------------------------------------------------------

    def _land_operation(
        self,
        app: str,
        operation: Dict[str, Any],
        persist: Callable[[SubscriptionSpec, str, Any], None],
    ) -> None:
        spec = self.spec_for(app, operation["types"])
        if spec is None:
            return  # this service does not subscribe to the model
        with spec.model_cls._suspend_readonly_guard():
            persist(spec, operation["operation"], spec.hydrate(operation))

    def apply_operation(self, app: str, operation: Dict[str, Any]) -> None:
        """Apply one wire operation through the local ORM (bootstrap's
        bulk phase, rollback redo)."""
        self._land_operation(app, operation, self._save)

    def _save(self, spec: SubscriptionSpec, kind: str, instance: Any) -> None:
        """The live persist: ``save()``/``destroy()`` as a remote apply
        — callbacks fire, the interceptor sees the write."""
        model_cls = spec.model_cls
        service = self.service
        # Read-path hook (docs/read_path.md): views need the row state
        # around the write — raw mapper reads, so neither capture fires
        # callbacks or read-dependency tracking. The pre-write state is
        # read only when an aggregate actually depends on this model.
        views = service.views
        track = (
            views is not None
            and not spec.observer
            and model_cls.__mapper__ is not None
            and model_cls.__mapper__.db is not None
        )
        old_row = None
        if track and views.needs_old_row(model_cls.__name__):
            old_row = model_cls.__mapper__._do_find(instance.id)
        with service.applying_remote_scope(model_cls.__name__, instance.id):
            if spec.observer:
                self._notify_observer(kind, instance)
            elif kind != "delete":
                instance.save()
            elif not instance.new_record:
                instance.destroy()
        if track:
            new_row = model_cls.__mapper__._do_find(instance.id)
            views.on_applied(model_cls.__name__, instance.id, old_row, new_row)

    @staticmethod
    def _store_raw(spec: SubscriptionSpec, kind: str, instance: Any) -> None:
        """The restore persist: the instance's persisted attributes
        written at the mapper's storage layer."""
        mapper = spec.model_cls.__mapper__
        if spec.observer or mapper is None or mapper.db is None:
            return  # observers persist nothing
        if kind == "delete":
            if not instance.new_record:
                mapper._do_delete(instance.id)
        elif instance.new_record:
            mapper._do_insert(instance.to_attributes())
        else:
            attrs = instance.to_attributes()
            del attrs["id"]
            mapper._do_update(instance.id, attrs)

    @staticmethod
    def _notify_observer(kind: str, instance: Any) -> None:
        """Observers are never persisted: fire the callbacks."""
        instance._new_record = kind == "create"
        if kind == "create":
            run_callbacks(instance, "before_create")
            instance._new_record = False
            run_callbacks(instance, "after_create")
        elif kind == "update":
            run_callbacks(instance, "before_update")
            run_callbacks(instance, "after_update")
        elif kind == "delete":
            run_callbacks(instance, "before_destroy")
            run_callbacks(instance, "after_destroy")
