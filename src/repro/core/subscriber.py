"""The Synapse subscriber engine (§4.1, §4.2).

Workers take write messages off the service's durable queue, wait until
the message's dependencies are satisfied in the local version store
(per the subscription's delivery mode), apply the operations through the
local ORM (firing the application's active-model callbacks), increment
the dependency counters, and ack.

"Already applied?" is a counter question, asked of the same counters:
a message has been applied when every object it writes has a counter
past the version the message carries for that object
(:meth:`SynapseSubscriber.applied`). An ordered redelivery is found
done by the dependency check itself and acked as a duplicate; a weak
one is discarded object by object.

Weak mode never waits: it applies fresh updates and discards stale ones.
During bootstrap an ordered message does not wait either: it is landed
fresh-or-discard per written object, and its other own-app counters
(a session user's, ``__global__``) bump as an ordered apply bumps them.

A subscription is read in one place. :class:`SubscriptionSpec` owns the
field map in both directions — ``hydrate`` (remote → local, through the
model, so ``as:`` renames and virtual setters run) and ``project``
(local → remote, what the audit digest hashes). The per-message step —
land the operations, move the counters — is
:meth:`SynapseSubscriber._land` + :meth:`SynapseSubscriber._count`;
the live apply and WAL replay (:meth:`SynapseSubscriber.replay_apply`)
both run it and differ in the persist step they hand it: ``_save``
(through the ORM) or ``_store_raw`` (mapper storage writes).
"""

from __future__ import annotations

from contextlib import contextmanager
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
from repro.runtime.interleave import (
    GENERATION_FLUSH, SUBSCRIBER_APPLIED, emit, observe_point, yield_point,
)
from repro.runtime.tracing import STAGE_APPLY, STAGE_DEP_WAIT, activate_trace, trace_now
from repro.versionstore.store import DONE, StripedLocks


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
            declared, write_field = self.model_cls._fields, instance._write_attribute
            for remote, local in self.fields.items():
                if remote in attributes:
                    # A declared field goes straight into the attribute
                    # table (the read-only guard still applies), a
                    # virtual one through ``setattr`` and its setter.
                    write = write_field if local in declared else instance.__setattr__
                    write(local, wire_value(attributes[remote]))
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


def _required(message: Message, mode: str) -> Dict[str, int]:
    """The counters an ordered ``mode`` delivery waits on: the
    dependency map weakened to the mode, plus the externals."""
    required = effective_dependencies(message.dependencies, mode, ())
    required.update(message.external_dependencies)
    return required


#: :meth:`SynapseSubscriber._land` stage -> the interleave event the live
#: apply emits for it on a weak (fresh-or-discard) message.
_WEAK_EVENTS = {
    "claim": "apply.weak.claim",
    "discarded": "apply.weak.discarded",
    "fresh": "apply.weak",
}


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
        #: Time applied messages spent blocked on dependency counters.
        self.dep_wait = registry.histogram(f"subscriber.{service.name}.dep_wait")
        #: Time spent applying operations through the local ORM.
        self.apply_time = registry.histogram(f"subscriber.{service.name}.apply")
        self.queue = None
        # Per-object serialisation of weak applies and targeted repair's
        # transfer: the stale check, the ORM write and the counter
        # fast-forward must be one atomic step per object, or two
        # parallel workers can interleave check-then-apply and land an
        # older version on top of a newer one. A table of its own, not
        # the publisher's: a callback under an object stripe may publish.
        self._object_locks = StripedLocks()

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

    def is_multi_publisher(self, spec: SubscriptionSpec) -> bool:
        """Whether ``spec``'s local model merges several publishers' rows
        (Fig 3), so no one publisher's replica covers the whole table."""
        return sum(
            1 for other in self.specs.values() if other.model_cls is spec.model_cls
        ) > 1

    # ------------------------------------------------------------------
    # Synchronous draining (deterministic execution)
    # ------------------------------------------------------------------

    @property
    def batch_limit(self) -> int:
        """The most deliveries one apply call is handed: the flow
        controller's ``batch_max`` (1 with flow control off)."""
        return self.service.ecosystem.flow.config.batch_max

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
        """The subscriber algorithm (§4.2) over one popped batch, one
        message at a time in ``seq`` order; a single message is a batch
        of one. Returns ``process_batch``'s triple plus the exception
        behind ``errors``.

        Each message is classified after the members before it have
        applied, so an in-batch causal chain (e.g. consecutive writes by
        the same session user) clears in one call against the real
        counters. The first apply error ends the batch: the failed
        member and every later one are retried.
        """
        done: List[Message] = []
        retry: List[Message] = []
        #: (index in ``retry``, required map) of the first
        #: dependency-stalled message.
        blocked: Optional[Tuple[int, Dict[str, int]]] = None
        store = self.service.subscriber_version_store
        if len(messages) > 1:
            messages = sorted(messages, key=_by_seq)
        for position, message in enumerate(messages):
            weak = False
            if not self._generation_ready(message):
                retry.append(message)
                continue
            elif self.app_modes.get(message.app, WEAK) == WEAK:
                # Weak never waits, and fast-forwards instead of bumping;
                # a redelivery is discarded object by object.
                weak = True
            else:
                # Bootstrap forces weak semantics (§3.2): apply without
                # waiting, fresh-or-discard per written object, but bump
                # the other counters so the configured mode resumes
                # cleanly once in sync — and skip what step 1's bulk
                # counter transfer already counted.
                forced = self.bootstrapping
                required: Dict[str, int] = {}
                if not forced:
                    # Non-weak modes never consult the written-object set.
                    mode = self.app_modes[message.app]
                    required = message.fact(("required", mode), _required, mode)
                    yield_point("dep.check", message=message, required=required)
                wait_start = trace_now()
                verdict = store.satisfied(required, message.fact("written", self._written))
                if verdict == DONE:
                    # Applied already (a redelivery after a lost ack): ack
                    # it again, bump nothing.
                    self._duplicates.increment()
                    yield_point("dedup.duplicate", message=message)
                    done.append(message)
                    continue
                if not verdict:
                    if blocked is None:
                        blocked = (len(retry), required)
                    retry.append(message)
                    continue
                if not forced:
                    self._record_dep_wait(message, wait_start)
                weak = forced
            failure = self._try_apply(message, weak)
            if failure is not None:
                retry.extend(messages[position:])
                return done, retry, 1, failure
            done.append(message)

        if not done and blocked is not None and wait_timeout > 0:
            # Nothing done right now: block on the first stalled
            # member's requirements instead of spinning nack/pop rounds
            # that inflate delivery counts into premature give-ups.
            index, required = blocked
            wait_start = trace_now()
            if store.wait_satisfied(required, wait_timeout):
                message = retry.pop(index)
                self._record_dep_wait(message, wait_start)
                failure = self._try_apply(message, False)
                if failure is not None:
                    retry.append(message)
                    return done, retry, 1, failure
                done.append(message)
        return done, retry, 0, None

    def _try_apply(self, message: Message, weak: bool) -> Optional[Exception]:
        """Apply one admitted message; returns its apply error, if any.
        A ``DurabilityError`` is not one to count and retry: the log is
        fail-stop, so this process's memory is abandoned and the WAL
        prefix is the truth. It passes through untouched."""
        try:
            if message.trace is None:
                self._apply_one(message, weak)
            else:
                # Traced message: make the trace the thread's current
                # trace so an over-threshold histogram observation
                # anywhere in the apply path captures this message's uid
                # as its exemplar.
                with activate_trace(message.trace):
                    self._apply_one(message, weak)
        except DurabilityError:
            raise
        except Exception as exc:
            return exc
        return None

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

    def _apply_one(self, message: Message, weak: bool) -> None:
        """Apply one admitted message: engine writes, the ``apply``
        record, counter bumps, bookkeeping. ``weak``: land it
        fresh-or-discard (weak mode, or forced by a bootstrap)."""
        if weak:
            self._land(message, True, self._save, self._teller(message))
        else:
            yield_point("apply", message=message)
            start = trace_now()
            if len(message.operations) > 1 and self._can_group_commit():
                # Atomically when the local engine supports transactions:
                # a multi-write publisher transaction then lands as one
                # subscriber transaction (§4.2).
                with self._group_commit():
                    self._land(message, False, self._save)
            else:
                self._land(message, False, self._save)
            elapsed = trace_now() - start
            self.apply_time.record(elapsed)
            if message.trace is not None:
                message.trace.add(STAGE_APPLY, start, elapsed)
        # Logged before the bump: the bump is what releases a
        # dependent message, and a dependent's record overtaking this
        # one would make replay land the older write last.
        emit(self.service.ecosystem.durability, SUBSCRIBER_APPLIED, self.service, message)
        self._count(message, weak)
        self._processed.increment()
        yield_point("msg.finished", message=message)
        self.service.ecosystem.monitor.observe_applied(self.service.name, message)
        if message.trace is not None:
            self.service.ecosystem.tracer.record(message.trace)

    def _count(self, message: Message, weak: bool) -> None:
        """Move the counters once a message's writes have landed. An
        ordered mode bumps every own-app dependency — after a ``weak``
        (bootstrap-forced) landing, every one but the written objects',
        which :meth:`_land` fast-forwarded. Weak mode bumps nothing;
        externals are never bumped."""
        mode = self.app_modes.get(message.app, WEAK)
        if mode != WEAK:
            self.service.subscriber_version_store.apply_counts(
                message.fact(("bumps", mode, weak), self._bump_order, mode, weak)
            )

    def _bump_order(self, message: Message, mode: str, weak: bool) -> Dict[str, int]:
        """The counter bumps of one apply in ``mode``, in the order they
        are made."""
        increments = message.counter_increments()
        if weak:
            written = self.object_deps(message)
            increments = {dep: n for dep, n in increments.items() if dep not in written}
        if mode == GLOBAL:
            # The global counter is the gate that admits this message's
            # successor, so it is bumped after the object counters: once
            # the gate opens, every bump of every earlier message has
            # landed. The order is set here, not read off the wire, which
            # carries dependencies in canonical key order (``__global__``
            # first).
            gate = self.service.ecosystem.hasher.hash(GLOBAL_OBJECT)
            if gate in increments:
                increments = dict(increments)
                increments[gate] = increments.pop(gate)
        return increments

    def _can_group_commit(self) -> bool:
        db = self.service.database
        return (
            db is not None
            and getattr(db, "supports_transactions", False)
            and db.current_transaction() is None
        )

    @contextmanager
    def _group_commit(self):
        """One engine transaction around a multi-operation message's
        writes. Callers check :meth:`_can_group_commit` first.

        Views buffer the whole transaction and fold once after it
        lands, so each derived aggregate updates — and each cache key
        is written — once per message, never mid-transaction."""
        views = self.service.views
        if views is not None:
            views.begin_batch()
        try:
            with self.service.database.begin():
                yield
        except Exception:
            # The engine rolled back: drop the buffered transitions
            # (the retried apply re-enters on_applied with fresh
            # post-rollback row states).
            if views is not None:
                views.abort_batch()
            raise
        if views is not None:
            views.commit_batch()

    def applied(self, message: Message) -> bool:
        """Has ``message`` been applied? True when every object it
        writes has a counter past the version it carries for that
        object — the dependency check's DONE verdict, asked alone
        (restore). Never for a message of a generation
        this subscriber has not entered: the gate flushes before such a
        message applies, and its versions restart below the old
        generation's counters."""
        if message.generation > self.generations.get(message.app, 1):
            return False
        store = self.service.subscriber_version_store
        return store.satisfied({}, message.fact("written", self._written)) == DONE

    def _written(self, message: Message) -> Dict[str, int]:
        """hashed object dep -> the version the message carries for it,
        for the objects it writes: the ``"written"`` fact."""
        carried = message.dependencies
        return {
            hashed: carried[hashed]
            for hashed in self.object_deps(message) if hashed in carried
        }

    def durable_state(self) -> Dict[str, Any]:
        """This subscriber's part of its service's snapshot section."""
        return {
            "sub_generations": dict(self.generations),
            "bootstrapping": self.bootstrapping,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a snapshot's generations (set-to-max, no flush: the
        counters come from the same snapshot) and bootstrap flag. A v1
        snapshot's window of applied uids is ignored: the counters
        already say what was applied."""
        for app, generation in state.get("sub_generations", {}).items():
            if generation > self.generations.get(app, 1):
                self.generations[app] = generation
        self.bootstrapping = bool(state.get("bootstrapping", False))

    def object_deps(self, message: Message) -> Dict[str, Dict[str, Any]]:
        """hashed object dep -> operation, for the written objects."""
        return {
            self.object_dep(message.app, operation): operation
            for operation in message.operations
        }

    def object_dep(self, app: str, operation: Dict[str, Any]) -> str:
        """The hashed dependency of the object one operation writes."""
        table = table_for_type(operation["types"][0])
        return self.service.ecosystem.hasher.hash(dep_name(app, table, operation["id"]))

    def _land(
        self,
        message: Message,
        weak: bool,
        persist: Callable[[SubscriptionSpec, str, Any], None],
        tell: Callable[..., None] = _untold,
    ) -> None:
        """Land one message's operations — the per-class half of the
        subscriber algorithm (§4.2), run by the live apply and by WAL
        replay alike. ``persist(spec, kind, instance)`` is how a
        hydrated instance reaches the engine; ``tell(stage, dep,
        version)`` hears each per-object decision.

        An ordered message lands every operation. Weak delivery (§3.2)
        is fresh-or-discard per written object: apply unless the local
        replica is already ahead, then fast-forward the object's
        counter. A bootstrap-forced apply lands the same way."""
        if not weak:
            for operation in message.operations:
                self._land_operation(message.app, operation, persist)
            return
        store = self.service.subscriber_version_store
        increments = message.counter_increments()
        for hashed, operation in self.object_deps(message).items():
            version = message.dependencies.get(hashed, 0)
            tell("claim", hashed, version)
            with self._object_locks.lock_for(hashed):
                if store.is_stale(hashed, version):
                    tell("discarded", hashed, version)
                    continue
                tell("fresh", hashed, version)
                self._land_operation(message.app, operation, persist)
                # A coalesced message stands in for several publisher
                # bumps: fast-forward past all of them, or the lag audit
                # would report a phantom per-merge counter deficit.
                store.fast_forward(
                    hashed, version + max(0, increments.get(hashed, 1) - 1)
                )

    def _teller(self, message: Message) -> Callable[..., None]:
        """What the live apply does on hearing :meth:`_land`'s
        decisions about a weak message: count the discards and emit
        the interleave events — a yield point for the claim, made
        before the object lock is taken, record-only for the ones made
        under it."""

        def tell(stage: str, dep: str, version: int) -> None:
            if stage == "discarded":
                self._stale.increment()
            (yield_point if stage == "claim" else observe_point)(
                _WEAK_EVENTS[stage], message=message, dep=dep, version=version
            )

        return tell

    def replay_apply(self, message: Message) -> bool:
        """Restore: land one logged apply again — the live step with
        the raw persist — unless the counters say it is
        :meth:`applied`; True when it landed. No callbacks (every cascade they
        produced is already its own log record), no write the publisher
        intercepts, no view hook (views rebuild after restore), no
        interleave event of this module, no subscriber metric. An
        ordered message replays as the live step chose: forced while the
        subscriber is bootstrapping (the flag a snapshot restores)."""
        if self.applied(message):
            return False
        weak = self.bootstrapping or self.app_modes.get(message.app, WEAK) == WEAK
        self._land(message, weak, self._store_raw)
        self._count(message, weak)
        return True

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
        # Announced ahead of the pause and the flush: replaying a
        # ``gen`` record performs the flush the gate has decided on.
        log = self.service.ecosystem.durability
        emit(log, GENERATION_FLUSH, self.service, message.app, message.generation)
        yield_point()
        self.enter_generation(message.app, message.generation)
        return True

    def enter_generation(self, app: str, generation: int) -> None:
        """Flush ``app``'s dependency counters and adopt a newer
        generation (live gate and ``gen`` record replay); an older or
        equal one changes nothing."""
        if generation <= self.generations.get(app, 1):
            return
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
        bulk phase)."""
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
        # The one-shot token that keeps this save from republishing.
        targets = service.remote_targets()
        targets.append([model_cls.__name__, instance.id, False])
        try:
            if spec.observer:
                self._notify_observer(kind, instance)
            elif kind != "delete":
                instance.save()
            elif not instance.new_record:
                instance.destroy()
        finally:
            targets.pop()
        if track:
            new_row = model_cls.__mapper__._do_find(instance.id)
            views.on_applied(model_cls.__name__, instance.id, old_row, new_row)

    @staticmethod
    def _store_raw(spec: SubscriptionSpec, kind: str, instance: Any) -> None:
        """The restore persist: the instance's persisted attributes
        written at the mapper's storage layer (an observer's mapper
        stores nothing)."""
        mapper = spec.model_cls.__mapper__
        if kind == "delete":
            mapper.delete_raw(instance.id)
        else:
            mapper.upsert_raw(instance.id, instance.to_attributes())

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
