"""The Synapse publisher: interception, dependency versioning, 2PC (§4.2).

Implements the ORM interceptor protocol. For every write of a published
model it:

1. computes write dependencies (the object itself first, then the user
   session object under causal mode, then the global object under global
   mode) and read dependencies (implicit controller reads, the chained
   previous write, explicit ``add_read_deps``);
2. acquires locks on the write dependencies;
3. bumps the version-store counters (``ops``/``version``) obtaining the
   message version of each dependency;
4. performs the engine write and reads the written row back;
5. releases the locks and publishes the Fig 6(b) message.

Writes inside a DB transaction are deferred and combined into a single
message published through two-phase-commit hooks on the transaction, so
commit + version bumps + publish are atomic (§4.2 "Transactions"). A
version-store crash mid-algorithm bumps the publisher's generation
number and resumes with fresh counters (§4.4).

Dependency collection from the controller context is shared between the
immediate and transactional paths (:meth:`_collect_dependencies`), and
both paths are instrumented: span-per-stage tracing when the ecosystem
tracer is on, counters/histograms in the ecosystem metrics registry
always (``publisher.<app>.overhead``, ``publisher.<app>.published``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.delivery import GLOBAL, GLOBAL_OBJECT, WEAK
from repro.core.dependencies import dep_name
from repro.core.marshal import build_message, marshal_operation, wire_value
from repro.errors import DecoratorViolation, FaultInjected
from repro.orm.mapper import ReadEvent, Row, WriteIntent
from repro.runtime.tracing import (
    STAGE_COLLECT,
    STAGE_ENGINE_WRITE,
    STAGE_INTERCEPT,
    STAGE_REGISTER,
    SpanLog,
    Trace,
    activate_trace,
    trace_now,
)


def _dedupe(deps: List[str], exclude: List[str]) -> List[str]:
    """Order-preserving dedupe, dropping anything in ``exclude``."""
    seen = set(exclude)
    out: List[str] = []
    for dep in deps:
        if dep not in seen:
            seen.add(dep)
            out.append(dep)
    return out


class _TxnBatch:
    """Writes accumulated within one DB transaction."""

    def __init__(self) -> None:
        self.ops: List[Tuple[str, type, Row, List[str]]] = []
        self.message = None
        self.first_write_dep: Optional[str] = None
        self.ctx = None


class SynapsePublisher:
    """Per-service publishing engine; one instance per publisher app."""

    def __init__(self, service: Any) -> None:
        self.service = service
        registry = service.ecosystem.metrics
        self.metrics = registry
        #: Wall-clock seconds spent inside Synapse publish logic — the
        #: "Synapse time" column of Fig 12(a).
        self.overhead = registry.histogram(f"publisher.{service.name}.overhead")
        self._published = registry.counter(f"publisher.{service.name}.published")

    @property
    def messages_published(self) -> int:
        return self._published.value

    # ------------------------------------------------------------------
    # Interceptor protocol
    # ------------------------------------------------------------------

    def write(self, intent: WriteIntent, perform: Callable[[], Row]) -> Row:
        service = self.service
        model_cls = intent.model_cls
        if service.is_applying_target(model_cls.__name__, intent.row_id):
            # The subscriber engine persisting a remote update must not
            # republish it; nested writes from subscriber callbacks (e.g.
            # decoration updates) still publish normally.
            return perform()
        pub_fields = service.published_fields_for(model_cls)
        if pub_fields is None:
            return perform()  # unpublished model: plain DB write

        if service.subscription_specs_for(model_cls) and intent.kind in (
            "create",
            "delete",
        ):
            raise DecoratorViolation(
                f"{service.name!r} decorates {model_cls.__name__} and may not "
                f"{intent.kind} its instances (§3.1)"
            )
        # A value the wire cannot carry is refused here, before the
        # engine write and the version bump: afterwards the row and the
        # counter would stand with no message to carry them, and every
        # causal subscriber would wait on that version for ever.
        for name in pub_fields:
            if name in intent.attrs:
                wire_value(intent.attrs[name])

        txn = self._current_transaction(model_cls)
        if txn is not None:
            return self._transactional_write(txn, intent, perform, model_cls, pub_fields)
        return self._immediate_write(intent, perform, model_cls, pub_fields)

    def read(self, event: ReadEvent) -> None:
        """Register read dependencies for rows returned to the app."""
        service = self.service
        ctx = service._controllers.current()
        if ctx is None:
            return  # applications are stateless outside controllers (§2)
        model_cls = event.model_cls
        table = model_cls.table_name()
        specs = service.subscription_specs_for(model_cls)
        if specs:
            # Reads of subscribed data are *external* dependencies: the
            # version is what our subscriber-side store has seen (§4.2).
            hasher = service.ecosystem.hasher
            store = service.subscriber_version_store
            for spec in specs:
                for row in event.rows:
                    hashed = hasher.hash(dep_name(spec.from_app, table, row["id"]))
                    ctx.record_external_read(hashed, store.ops(hashed))
        elif service.published_fields_for(model_cls) is not None:
            for row in event.rows:
                ctx.record_local_read(dep_name(service.name, table, row["id"]))

    # ------------------------------------------------------------------
    # Dependency collection (shared by both write paths)
    # ------------------------------------------------------------------

    def _collect_dependencies(
        self,
        ctx: Any,
        mode: str,
        write_deps: List[str],
        trace: Optional[Union[SpanLog, Trace]] = None,
    ) -> Tuple[List[str], Dict[str, int]]:
        """Fold the controller context into ``write_deps`` (in place) and
        return ``(read_deps, external_deps)``.

        The single home of the §4.2 dependency rules: the session user
        object and explicit ``add_write_deps`` join the write deps (causal
        and global modes), implicit controller reads / the chained
        previous write / explicit ``add_read_deps`` become read deps,
        reads of subscribed data become external deps, and global mode
        appends the ``__global__`` object. Consumed context state is
        cleared so the next write in the controller starts fresh.
        """
        start = trace_now() if trace is not None else 0.0
        read_deps: List[str] = []
        external: Dict[str, int] = {}
        if mode != WEAK and ctx is not None:
            if ctx.user_dep is not None:
                write_deps.append(ctx.user_dep)
            if ctx.extra_write_deps:
                write_deps.extend(ctx.extra_write_deps)
                ctx.extra_write_deps = []
            read_deps.extend(ctx.read_deps)
            ctx.read_deps = []
            ctx._seen_reads.clear()
            if ctx.prev_write_dep is not None:
                read_deps.append(ctx.prev_write_dep)
            external = dict(ctx.external_deps)
            ctx.external_deps = {}
        if mode == GLOBAL:
            write_deps.append(GLOBAL_OBJECT)
        if trace is not None:
            trace.add(STAGE_COLLECT, start, trace_now() - start)
        return read_deps, external

    # ------------------------------------------------------------------
    # Immediate (non-transactional) path
    # ------------------------------------------------------------------

    def _immediate_write(
        self,
        intent: WriteIntent,
        perform: Callable[[], Row],
        model_cls: type,
        pub_fields: List[str],
    ) -> Row:
        service = self.service
        clock = service.ecosystem.clock
        trace = service.ecosystem.tracer.begin_log()
        intercept_start = trace_now() if trace is not None else 0.0
        start = clock.monotonic()
        mode = service.delivery_mode
        ctx = service._controllers.current()
        table = model_cls.table_name()

        obj_dep: Optional[str] = None
        write_deps: List[str] = []
        if intent.row_id is not None:
            obj_dep = dep_name(service.name, table, intent.row_id)
            write_deps.append(obj_dep)
        read_deps, external = self._collect_dependencies(ctx, mode, write_deps, trace)

        store = service.publisher_version_store
        locks = store.acquire_write_locks(write_deps)
        try:
            if trace is not None:
                write_start = trace_now()
                row = perform()
                trace.add(STAGE_ENGINE_WRITE, write_start, trace_now() - write_start)
            else:
                row = perform()
            if obj_dep is None:
                obj_dep = dep_name(service.name, table, row["id"])
                write_deps.insert(0, obj_dep)
            # Each object is one write dependency even when it plays two
            # roles (e.g. the session user updating itself), and an object
            # both read and written is only a write dependency (Fig 8: W4
            # reads the post it updates, read_deps stay empty).
            write_deps = _dedupe(write_deps, exclude=[])
            read_deps = _dedupe(read_deps, exclude=write_deps)
            versions = self._register_with_recovery(read_deps, write_deps, trace)
        finally:
            store.release_locks(locks)

        operation = marshal_operation(intent.kind, model_cls, row, pub_fields)
        message = build_message(
            app=service.name,
            operations=[operation],
            dependencies=versions,
            published_at=clock.now(),
            generation=service.current_generation(),
            external_dependencies=external,
        )
        # Publish-time work done; stop the overhead clock before the
        # (broker-side) fan-out which the paper attributes to the fabric.
        elapsed = clock.monotonic() - start
        if trace is not None:
            trace.add(STAGE_INTERCEPT, intercept_start, trace_now() - intercept_start)
            # Head-based sampling decides here (the uid now exists):
            # unsampled messages ship with no trace at all, and only a
            # sampled one pays for real Trace/Span objects.
            service.ecosystem.tracer.attach_log(service.name, trace, message)
        if message.trace is not None:
            with activate_trace(message.trace):
                self.overhead.record(elapsed)
        else:
            self.overhead.record(elapsed)
        service.broker.publish(message)
        self._published.increment()
        if ctx is not None:
            ctx.note_write(obj_dep)
        return row

    # ------------------------------------------------------------------
    # CDC ingest seam (transactional-outbox front-end)
    # ------------------------------------------------------------------

    def ingest_cdc(
        self, kind: str, model_cls: type, row: Row, cdc_seq: int
    ) -> Any:
        """Publish one already-committed outbox entry.

        The second intercept front-end (§7's admitted gap): the row was
        written by ``raw_write`` *bypassing* the ORM, committed together
        with its outbox record, and is now being tailed by the CDC
        poller. From here on the write takes the exact pipeline of an
        ORM write — dependency collection, version-store registration,
        marshalling, tracing, broker fan-out — minus the engine write
        (already durable) and minus controller context (raw sessions
        run outside controllers, so causal reads don't chain).

        The message uid is derived from the outbox sequence
        (``<app>:cdc:<seq>``), stable across crash-replay republishes so
        subscriber-side dedup makes the at-least-once tail effectively
        exactly-once.
        """
        service = self.service
        clock = service.ecosystem.clock
        trace = service.ecosystem.tracer.begin_log()
        intercept_start = trace_now() if trace is not None else 0.0
        start = clock.monotonic()
        mode = service.delivery_mode
        table = model_cls.table_name()

        obj_dep = dep_name(service.name, table, row["id"])
        write_deps: List[str] = [obj_dep]
        read_deps, external = self._collect_dependencies(
            None, mode, write_deps, trace
        )

        store = service.publisher_version_store
        locks = store.acquire_write_locks(write_deps)
        try:
            write_deps = _dedupe(write_deps, exclude=[])
            read_deps = _dedupe(read_deps, exclude=write_deps)
            versions = self._register_with_recovery(read_deps, write_deps, trace)
        finally:
            store.release_locks(locks)

        pub_fields = service.published_fields_for(model_cls)
        operation = marshal_operation(kind, model_cls, row, pub_fields or [])
        message = build_message(
            app=service.name,
            operations=[operation],
            dependencies=versions,
            published_at=clock.now(),
            generation=service.current_generation(),
            external_dependencies=external,
            uid=f"{service.name}:cdc:{cdc_seq}",
            cdc=cdc_seq,
        )
        elapsed = clock.monotonic() - start
        if trace is not None:
            trace.add(STAGE_INTERCEPT, intercept_start, trace_now() - intercept_start)
            service.ecosystem.tracer.attach_log(service.name, trace, message)
        if message.trace is not None:
            with activate_trace(message.trace):
                self.overhead.record(elapsed)
        else:
            self.overhead.record(elapsed)
        service.broker.publish(message)
        self._published.increment()
        return message

    # ------------------------------------------------------------------
    # Transactional path (2PC, §4.2)
    # ------------------------------------------------------------------

    def _transactional_write(
        self,
        txn: Any,
        intent: WriteIntent,
        perform: Callable[[], Row],
        model_cls: type,
        pub_fields: List[str],
    ) -> Row:
        # The engine already holds locks on written rows until commit, so
        # the publisher skips its own write-dep locks (§4.2 optimisation).
        row = perform()
        batch: Optional[_TxnBatch] = getattr(txn, "_synapse_batch", None)
        if batch is None:
            batch = _TxnBatch()
            batch.ctx = self.service._controllers.current()
            txn._synapse_batch = batch
            txn.on_prepare.append(self._prepare_transaction)
            txn.on_commit.append(self._commit_transaction)
        batch.ops.append((intent.kind, model_cls, dict(row), pub_fields))
        return row

    def _prepare_transaction(self, txn: Any) -> None:
        """2PC phase one: bump versions and build the combined message."""
        service = self.service
        clock = service.ecosystem.clock
        trace = service.ecosystem.tracer.begin_log()
        intercept_start = trace_now() if trace is not None else 0.0
        start = clock.monotonic()
        batch: _TxnBatch = txn._synapse_batch
        mode = service.delivery_mode
        ctx = batch.ctx

        write_deps: List[str] = []
        for _kind, model_cls, row, _fields in batch.ops:
            dep = dep_name(service.name, model_cls.table_name(), row["id"])
            if dep not in write_deps:
                write_deps.append(dep)
        batch.first_write_dep = write_deps[0] if write_deps else None
        read_deps, external = self._collect_dependencies(ctx, mode, write_deps, trace)

        write_deps = _dedupe(write_deps, exclude=[])
        read_deps = _dedupe(read_deps, exclude=write_deps)
        versions = self._register_with_recovery(read_deps, write_deps, trace)
        operations = [
            marshal_operation(kind, model_cls, row, fields)
            for kind, model_cls, row, fields in batch.ops
        ]
        batch.message = build_message(
            app=service.name,
            operations=operations,
            dependencies=versions,
            published_at=clock.now(),
            generation=service.current_generation(),
            external_dependencies=external,
        )
        elapsed = clock.monotonic() - start
        if trace is not None:
            trace.add(STAGE_INTERCEPT, intercept_start, trace_now() - intercept_start)
            service.ecosystem.tracer.attach_log(service.name, trace, batch.message)
        if batch.message.trace is not None:
            with activate_trace(batch.message.trace):
                self.overhead.record(elapsed)
        else:
            self.overhead.record(elapsed)

    def _commit_transaction(self, txn: Any) -> None:
        """2PC phase two: the local commit succeeded — publish."""
        batch: _TxnBatch = txn._synapse_batch
        if batch.message is None:
            return
        self.service.broker.publish(batch.message)
        self._published.increment()
        if batch.ctx is not None and batch.first_write_dep is not None:
            batch.ctx.note_write(batch.first_write_dep)

    # ------------------------------------------------------------------
    # Version-store failure recovery (§4.4)
    # ------------------------------------------------------------------

    def _register_with_recovery(
        self,
        read_deps: List[str],
        write_deps: List[str],
        trace: Optional[Union[SpanLog, Trace]] = None,
    ) -> Dict[str, int]:
        store = self.service.publisher_version_store
        start = trace_now() if trace is not None else 0.0
        try:
            versions = store.register_operation(read_deps, write_deps)
        except FaultInjected:
            self.service.recover_publisher_version_store()
            versions = store.register_operation(read_deps, write_deps)
        if trace is not None:
            trace.add(STAGE_REGISTER, start, trace_now() - start)
        return versions

    # ------------------------------------------------------------------

    @staticmethod
    def _current_transaction(model_cls: type) -> Any:
        mapper = model_cls.__mapper__
        getter = getattr(mapper, "current_transaction", None)
        return getter() if getter is not None else None
