"""The Synapse publisher: interception, dependency versioning, 2PC (§4.2).

Paper §4.2 gives the publisher one algorithm, and this module holds it
once, in :meth:`SynapsePublisher._prepare`:

1. collect dependencies from the controller context — write
   dependencies (the written objects first, then the user session object
   under causal mode, then the global object under global mode) and read
   dependencies (implicit controller reads, the chained previous write,
   explicit ``add_read_deps``) — :meth:`_collect_dependencies`;
2. acquire locks on the write dependencies;
3. perform the engine write and read the written row back;
4. marshal the operations (virtual getters run here; a value the wire
   cannot carry is refused *before* any counter moves);
5. bump the version-store counters (``ops``/``version``), obtaining the
   message version of each dependency — :meth:`_register_with_recovery`,
   which bumps the publisher's generation and resumes with fresh
   counters when the version store crashed mid-algorithm (§4.4);
6. release the locks, build the Fig 6(b) message, stop the overhead
   clock and attach the sampled trace;
7. ship: broker fan-out, ``publisher.<app>.published``, and the chained
   ``prev_write_dep`` of the controller context.

A single write is a transaction of one. The four front-ends differ only
in what they hand that algorithm (the table is in
``docs/architecture.md``):

- **ORM write** (:meth:`write`): the one written row, the current
  controller context, locks around the engine write, ships now;
- **ORM write inside** ``database.begin()``: every write of the
  transaction combined into one message, the context captured at the
  first write, no publisher locks (the engine holds the rows until
  commit), prepared in the transaction's prepare phase and shipped from
  ``on_commit`` — commit + version bumps + publish are atomic (§4.2
  "Transactions");
- **CDC ingest** (:meth:`ingest_cdc`): one committed outbox entry, no
  context, no engine write, a ``uid``/``cdc`` pair derived from the
  outbox sequence;
- **repair** (:meth:`publish_repair`): a batch of divergent rows, no
  context and no dependency collection at all, ``repair=True``.

All of it is instrumented in the one place: span-per-stage tracing when
the ecosystem tracer is on, counters/histograms in the ecosystem metrics
registry always (``publisher.<app>.overhead``, which covers the engine
write on the ORM-write path only, and ``publisher.<app>.published``;
repair traffic is counted under ``repair.*`` instead).
"""

from __future__ import annotations

from itertools import starmap
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
    STAGE_REPAIR_PUBLISH,
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


#: One write handed to the publisher algorithm: ``(kind, model class,
#: row, published fields)``.
Operation = Tuple[str, type, Row, List[str]]


class _TxnBatch:
    """Writes accumulated within one DB transaction, the controller
    context of the first, and — between the two commit phases — the ship
    step of their one message."""

    def __init__(self, ctx: Any) -> None:
        self.ops: List[Operation] = []
        self.ctx = ctx
        self.ship: Optional[Callable[[], Any]] = None


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
            # Writes inside a DB transaction are combined into one message
            # published through 2PC hooks on the transaction, so commit +
            # version bumps + publish are atomic (§4.2 "Transactions").
            row = perform()
            batch: Optional[_TxnBatch] = getattr(txn, "_synapse_batch", None)
            if batch is None:
                batch = txn._synapse_batch = _TxnBatch(service._controllers.current())
                txn.on_prepare.append(self._prepare_transaction)
                txn.on_commit.append(self._commit_transaction)
            batch.ops.append((intent.kind, model_cls, dict(row), pub_fields))
            return row
        # A single write is a transaction of one, whose engine write runs
        # inside the algorithm (under the locks) and fills in the row.
        ops: List[Operation] = [
            (intent.kind, model_cls, {"id": intent.row_id}, pub_fields)
        ]
        self._prepare(ops, service._controllers.current(), perform)()
        return ops[0][2]

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
    # Dependency collection
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
    # The §4.2 publisher algorithm — the only copy
    # ------------------------------------------------------------------

    def _prepare(
        self,
        ops: List[Operation],
        ctx: Any = None,
        perform: Optional[Callable[[], Row]] = None,
        locked: bool = True,
        repair: bool = False,
        uid: Optional[str] = None,
        cdc: Optional[int] = None,
    ) -> Callable[[], Any]:
        """Everything up to a built, versioned message; returns the ship
        step (broker fan-out and what follows it), which the caller runs
        now or hands to the transaction's commit phase.

        ``perform`` is the engine write of the one operation in ``ops``
        (whose row is then a stub holding the id, if known); it runs
        under the write-dependency locks and its row replaces the stub.
        """
        service = self.service
        clock = service.ecosystem.clock
        tracer = service.ecosystem.tracer
        trace = tracer.begin_log()
        span_start = trace_now() if trace is not None else 0.0
        start = clock.monotonic()

        shared_deps: List[str] = []
        read_deps: List[str] = []
        external: Dict[str, int] = {}
        if not repair:
            # A repair re-states objects: the subscriber fast-forwards
            # their counters only, so a session or ``__global__`` bump
            # here would be a version no repair apply ever releases.
            read_deps, external = self._collect_dependencies(
                ctx, service.delivery_mode, shared_deps, trace
            )
        store = service.publisher_version_store
        written: List[str] = []
        for _kind, model_cls, row, _fields in ops:
            if row["id"] is not None:
                written.append(dep_name(service.name, model_cls.table_name(), row["id"]))
        locks = store.acquire_write_locks(written + shared_deps) if locked else []
        try:
            if perform is not None:
                kind, model_cls, _stub, fields = ops[0]
                write_start = trace_now() if trace is not None else 0.0
                row = perform()
                if trace is not None:
                    trace.add(
                        STAGE_ENGINE_WRITE, write_start, trace_now() - write_start
                    )
                ops[0] = (kind, model_cls, row, fields)
                if not written:
                    # An auto-id create learns its object dependency from
                    # the engine write; it still goes first.
                    written = [dep_name(service.name, model_cls.table_name(), row["id"])]
            # Each object is one write dependency even when it plays two
            # roles (e.g. the session user updating itself), and an object
            # both read and written is only a write dependency (Fig 8: W4
            # reads the post it updates, read_deps stay empty).
            write_deps = _dedupe(written + shared_deps, exclude=[])
            read_deps = _dedupe(read_deps, exclude=write_deps)
            # Marshal before the bump: a virtual attribute whose value the
            # wire cannot carry raises here, with every counter where it
            # was — a bumped version with no message to carry it would
            # stall every causal subscriber on that object for ever.
            operations = list(starmap(marshal_operation, ops))
            versions = self._register_with_recovery(read_deps, write_deps, trace)
        finally:
            store.release_locks(locks)

        message = build_message(
            app=service.name,
            operations=operations,
            dependencies=versions,
            published_at=clock.now(),
            generation=service.current_generation(),
            external_dependencies=external,
            repair=repair,
            uid=uid,
            cdc=cdc,
        )
        # Publish-time work done; stop the overhead clock before the
        # (broker-side) fan-out which the paper attributes to the fabric.
        elapsed = clock.monotonic() - start
        if trace is not None:
            stage = STAGE_REPAIR_PUBLISH if repair else STAGE_INTERCEPT
            trace.add(stage, span_start, trace_now() - span_start)
            # Head-based sampling decides here (the uid now exists):
            # unsampled messages ship with no trace at all, and only a
            # sampled one pays for real Trace/Span objects.
            tracer.attach_log(service.name, trace, message)
        if not repair:  # repair traffic keeps its own accounting (``repair.*``)
            if message.trace is not None:
                with activate_trace(message.trace):
                    self.overhead.record(elapsed)
            else:
                self.overhead.record(elapsed)

        def ship() -> Any:
            service.broker.publish(message)
            if not repair:
                self._published.increment()
            if ctx is not None:
                ctx.note_write(write_deps[0])
            return message

        return ship

    # ------------------------------------------------------------------
    # Front-ends beside the ORM write: 2PC, CDC ingest, repair
    # ------------------------------------------------------------------

    def _prepare_transaction(self, txn: Any) -> None:
        """2PC phase one: bump versions and build the combined message.
        The engine holds locks on the written rows until commit, so the
        publisher takes none of its own (§4.2 optimisation)."""
        batch: _TxnBatch = txn._synapse_batch
        batch.ship = self._prepare(batch.ops, batch.ctx, locked=False)

    def _commit_transaction(self, txn: Any) -> None:
        """2PC phase two: the local commit succeeded — publish."""
        txn._synapse_batch.ship()

    def ingest_cdc(
        self, kind: str, model_cls: type, row: Row, cdc_seq: int
    ) -> Any:
        """Publish one already-committed outbox entry.

        The second intercept front-end (§7's admitted gap): the row was
        written by ``raw_write`` *bypassing* the ORM, committed together
        with its outbox record, and is now being tailed by the CDC
        poller. From here on the write *is* an ORM write — the same
        :meth:`_prepare` — minus the engine write (already durable) and
        minus controller context (raw sessions run outside controllers,
        so causal reads don't chain).

        The message uid is derived from the outbox sequence
        (``<app>:cdc:<seq>``), stable across crash-replay republishes so
        subscriber-side dedup makes the at-least-once tail effectively
        exactly-once.
        """
        service = self.service
        fields = service.published_fields_for(model_cls) or []
        return self._prepare(
            [(kind, model_cls, row, fields)],
            uid=f"{service.name}:cdc:{cdc_seq}",
            cdc=cdc_seq,
        )()

    def publish_repair(self, ops: List[Operation]) -> Any:
        """Re-publish ``ops`` — rows as the publisher holds them now — as
        one ``repair=True`` message (:mod:`repro.repair.repairer`)."""
        return self._prepare(ops, repair=True)()

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
