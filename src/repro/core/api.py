"""Synapse's public API: ecosystems, services and model declarations (§3).

An :class:`Ecosystem` is the shared fabric (broker, clock, dependency
hasher, generation authority). A :class:`Service` is one application:
its database, its models, its publisher and subscriber engines, and its
delivery-mode configuration.

::

    eco = Ecosystem()
    pub = eco.service("pub1", database=MongoLike("m"))

    @pub.model(publish=["name"])
    class User(Model):
        name = Field(str)

    sub = eco.service("sub1", database=PostgresLike("pg"))

    @sub.model(subscribe={"from": "pub1", "fields": ["name"]})
    class User(Model):           # noqa: F811 — separate service namespace
        name = Field(str)

    with pub.controller():
        User.create(name="ada")  # pub's User
    sub.subscriber.drain()       # sub's User now has the row
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Union

from repro.broker import Broker
from repro.clock import Clock, DEFAULT_CLOCK
from repro.core.delivery import CAUSAL, rank, validate_mode
from repro.core.dependencies import ControllerStack, controller_scope
from repro.core.generation import GenerationAuthority
from repro.core.observer import NonPersistedMapper
from repro.core.publisher import SynapsePublisher
from repro.core.subscriber import SubscriptionSpec, SynapseSubscriber
from repro.databases.kv import RedisLike
from repro.errors import DecoratorViolation, PublicationError, SynapseError
from repro.orm.mapper import mapper_for
from repro.orm.model import Model, bind_model
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.monitor import FlightRecorder, LagMonitor
from repro.runtime.tracing import Tracer
from repro.runtime.transport import ControlPlane
from repro.versionstore import (
    DependencyHasher,
    PublisherVersionStore,
    ShardedKV,
    SubscriberVersionStore,
)


class Ecosystem:
    """The shared fabric connecting every service."""

    def __init__(
        self,
        broker: Optional[Broker] = None,
        clock: Optional[Clock] = None,
        hasher: Optional[DependencyHasher] = None,
        queue_limit: Optional[int] = None,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        # One metrics registry per ecosystem; a pre-built broker brings
        # its own registry and the ecosystem adopts it so ``broker.*``
        # counters land in the same snapshot as everything else.
        if metrics is not None:
            self.metrics = metrics
        elif broker is not None:
            self.metrics = broker.metrics
        else:
            self.metrics = MetricsRegistry()
        self.broker = broker or Broker(
            default_queue_limit=queue_limit, seed=seed, metrics=self.metrics
        )
        self.clock = clock or DEFAULT_CLOCK
        self.hasher = hasher or DependencyHasher()
        self.generations = GenerationAuthority()
        #: End-to-end pipeline tracing; off by default (zero hot-path cost
        #: beyond one ``enabled`` check per publish).
        self.tracer = tracer or Tracer()
        #: Anomaly flight recorder: bounded rings of completed traces and
        #: structured events; the tracer's sink and the broker's drop
        #: events feed it (docs/observability.md).
        self.recorder = recorder or FlightRecorder(clock=self.clock)
        self.recorder.registry = self.metrics
        self.tracer.sink = self.recorder.record_trace
        self.broker.recorder = self.recorder
        self.broker.tracer = self.tracer
        #: Per-link lag SLOs and the ``eco.monitor.health()`` report.
        self.monitor = LagMonitor(self)
        #: FlowController once :meth:`enable_flow` has run; None means
        #: no admission, no coalescing, and apply batches of one.
        self.flow = None
        #: DurabilityManager once :meth:`enable_durability` has run;
        #: None keeps the in-memory-only pipeline byte-for-byte.
        self.durability = None
        #: CdcManager once :meth:`enable_cdc` has run (or the first
        #: ``Service.enable_outbox``); None means no raw-write front-end.
        self.cdc = None
        self.services: Dict[str, Service] = {}
        #: Control plane: every cross-service interaction that is not a
        #: broker write-message (bootstrap snapshots, digest exchange,
        #: repair triggers, watermark reads) flows through here as a
        #: JSON envelope — in-process over the loopback transport, or
        #: across worker processes in a sharded run.
        self.control = ControlPlane(self)
        #: Names of the services *this process* owns; None means all of
        #: them (the default single-process deployment). A ShardRunner
        #: worker narrows it to its placement.
        self.owned_services: Optional[set] = None
        #: Cluster observability plane (repro.runtime.monitor.cluster),
        #: wired up by the shard worker entry point in sharded runs.
        self.cluster = None

    # ------------------------------------------------------------------
    # Local-service views (the only sanctioned enumeration surface:
    # subsystems outside this module must not dereference
    # ``ecosystem.services`` — peers are reached via ``eco.control``)
    # ------------------------------------------------------------------

    def local_services(self) -> List["Service"]:
        """The services hosted by this process (all of them unless a
        shard placement narrowed ``owned_services``)."""
        if self.owned_services is None:
            return list(self.services.values())
        return [
            service for name, service in self.services.items()
            if name in self.owned_services
        ]

    def local_service(self, name: str) -> Optional["Service"]:
        """One locally-hosted service, or None if ``name`` is unknown
        here or owned by another shard."""
        if self.owned_services is not None and name not in self.owned_services:
            return None
        return self.services.get(name)

    def enable_tracing(
        self, sample_rate: Optional[float] = None, seed: Optional[int] = None
    ) -> Tracer:
        """Switch on per-message span tracing and return the tracer.

        ``sample_rate`` below 1.0 turns this into production-mode
        *sampled always-on* tracing: a deterministic per-uid decision
        picks which messages carry their trace across the wire."""
        return self.tracer.enable(sample_rate=sample_rate, seed=seed)

    def enable_flow(self, config: Optional[Any] = None) -> Any:
        """Switch on flow control (docs/flow_control.md) and return the
        :class:`~repro.runtime.flow.FlowController`.

        Every subscriber queue — existing and future — gets credit-based
        admission with graduated backpressure ahead of the §4.4 kill
        cliff, semantics-aware coalescing of same-object writes, and the
        workers/drain apply batches of up to ``batch_max`` messages
        instead of one."""
        from repro.runtime.flow import FlowConfig, FlowController

        controller = FlowController(
            config or FlowConfig(),
            metrics=self.metrics,
            mode_of=self.broker.publisher_mode,
            recorder=self.recorder,
        )
        self.flow = controller
        self.broker.attach_flow(controller)
        return controller

    def enable_durability(
        self,
        data_dir: Optional[str] = None,
        fsync: str = "off",
        segment_records: Optional[int] = None,
        group_max: Optional[int] = None,
        snapshot_every: Optional[int] = None,
    ) -> Any:
        """Switch on the durability subsystem (docs/durability.md) and
        return the :class:`~repro.durability.DurabilityManager`.

        Every durable state transition is appended to a segmented WAL
        under ``data_dir`` (default: ``$REPRO_DATA_DIR`` or
        ``./repro-data``), checkpointed into snapshots every
        ``snapshot_every`` appends (None = explicit snapshots only),
        and ``eco.durability.restore()`` rebuilds the process after a
        crash. ``fsync`` is ``off`` / ``interval`` (group commit) /
        ``always``. The flight recorder's anomaly dumps move under the
        same data dir unless already armed elsewhere."""
        import os as _os

        from repro.durability import (
            DurabilityManager,
            flight_dir,
            resolve_data_dir,
        )
        from repro.durability.wal import (
            DEFAULT_GROUP_MAX,
            DEFAULT_SEGMENT_RECORDS,
        )

        path = resolve_data_dir(data_dir)
        manager = DurabilityManager(
            self,
            path,
            fsync=fsync,
            segment_records=segment_records or DEFAULT_SEGMENT_RECORDS,
            group_max=group_max or DEFAULT_GROUP_MAX,
            snapshot_every=snapshot_every,
        )
        self.durability = manager
        self.broker.attach_durability(manager)
        if self.recorder.dump_dir is None:
            self.recorder.dump_dir = flight_dir(path)
            _os.makedirs(self.recorder.dump_dir, exist_ok=True)
        return manager

    def enable_cdc(self) -> Any:
        """Switch on the CDC / transactional-outbox front-end
        (docs/cdc.md) and return the :class:`~repro.cdc.CdcManager`.

        Services opt in per-service with ``enable_outbox()`` /
        ``raw_session()``; the manager tails every registered outbox
        into the ordinary publisher path. Idempotent."""
        if self.cdc is None:
            from repro.cdc import CdcManager

            self.cdc = CdcManager(self)
        return self.cdc

    def service(self, name: str, **kwargs: Any) -> "Service":
        if name in self.services:
            raise SynapseError(f"service {name!r} already exists")
        service = Service(name, self, **kwargs)
        self.services[name] = service
        self.control.register_service(service)
        return service

    def drain_all(self, max_rounds: int = 100) -> int:
        """Run every locally-owned subscriber until this process is
        quiescent — decorator cascades can need several rounds. With
        CDC enabled, each round first tails the outboxes: a raw write
        followed immediately by ``drain_all`` must land at subscribers,
        and the process is not quiescent while an outbox tail is
        non-empty."""
        total = 0
        for _ in range(max_rounds):
            progressed = 0
            if self.cdc is not None:
                progressed += self.cdc.poll_all()
            for service in self.local_services():
                progressed += service.subscriber.drain()
            total += progressed
            if progressed == 0:
                break
        return total


class Service:
    """One application in the ecosystem."""

    def __init__(
        self,
        name: str,
        ecosystem: Ecosystem,
        database: Optional[Any] = None,
        delivery_mode: str = CAUSAL,
        version_store_shards: int = 1,
    ) -> None:
        self.name = name
        self.ecosystem = ecosystem
        self.database = database
        self.delivery_mode = validate_mode(delivery_mode)
        self.registry: Dict[str, type] = {}
        self._published: Dict[type, List[str]] = {}
        self._subscribed: Dict[type, List[SubscriptionSpec]] = {}
        self._controllers = ControllerStack()
        self._remote_state = threading.local()
        self.publisher_version_store = PublisherVersionStore(
            ShardedKV(
                [RedisLike(f"{name}-pvs-{i}") for i in range(version_store_shards)]
            ),
            hasher=ecosystem.hasher,
            metrics=ecosystem.metrics,
            owner=name,
        )
        self.subscriber_version_store = SubscriberVersionStore(
            ShardedKV(
                [RedisLike(f"{name}-svs-{i}") for i in range(version_store_shards)]
            ),
            metrics=ecosystem.metrics,
            owner=name,
        )
        self.publisher = SynapsePublisher(self)
        self.subscriber = SynapseSubscriber(self)
        #: ViewManager once :meth:`enable_views` has run; None keeps the
        #: apply path byte-for-byte (no extra engine reads, no cache).
        self.views = None
        #: OutboxTable / CdcPoller once :meth:`enable_outbox` has run;
        #: None means no raw-write front-end for this service.
        self.outbox = None
        self.cdc_poller = None
        if database is not None:
            # Engine op-stats feed the shared registry (engine.<name>.*).
            database.bind_metrics(ecosystem.metrics)

    # ------------------------------------------------------------------
    # Model declaration (§3.1)
    # ------------------------------------------------------------------

    def model(
        self,
        publish: Optional[List[str]] = None,
        subscribe: Optional[Union[Dict[str, Any], List[Dict[str, Any]]]] = None,
        ephemeral: bool = False,
        observer: bool = False,
        name: Optional[str] = None,
    ):
        """Class decorator binding a model to this service.

        - ``publish=[...]``: attribute names to publish.
        - ``subscribe={"from": app, "fields": [...] | {remote: local},
          "mode": ...}`` or a list of such dicts (multi-publisher
          subscriptions, Fig 3).
        - ``ephemeral=True``: DB-less publisher; ``observer=True``:
          DB-less subscriber (§3.1).
        """
        if ephemeral and observer:
            raise SynapseError("a model cannot be both ephemeral and observer")
        if ephemeral and subscribe:
            raise SynapseError("ephemerals are publishers only")
        if observer and publish:
            raise SynapseError("observers are subscribers only")

        def decorator(cls: type) -> type:
            if not issubclass(cls, Model):
                raise SynapseError(f"{cls.__name__} must subclass Model")
            if name is not None:
                # Model names must match across services (§3.1); ``name``
                # lets test/app code avoid Python-scope name clashes.
                cls.__name__ = name
                cls.__qualname__ = name
            if cls.__name__ in self.registry:
                raise SynapseError(
                    f"service {self.name!r} already has a model named "
                    f"{cls.__name__!r}; each model has one owner (§3.1)"
                )
            if ephemeral or observer:
                mapper = NonPersistedMapper()
            else:
                if self.database is None:
                    raise SynapseError(
                        f"service {self.name!r} has no database; use "
                        "ephemeral/observer for DB-less models"
                    )
                mapper = mapper_for(self.database)
            bind_model(cls, self.database, registry=self.registry, mapper=mapper)
            cls._service = self
            mapper.interceptor = self.publisher
            mapper.bind_metrics(self.ecosystem.metrics, self.name)

            if subscribe is not None:
                self._declare_subscriptions(cls, subscribe, observer)
            if publish is not None:
                self._declare_publication(cls, list(publish))
            return cls

        return decorator

    def _declare_subscriptions(
        self,
        cls: type,
        subscribe: Union[Dict[str, Any], List[Dict[str, Any]]],
        observer: bool,
    ) -> None:
        spec_dicts = subscribe if isinstance(subscribe, list) else [subscribe]
        readonly: set = set(cls._readonly_fields)
        for spec_dict in spec_dicts:
            try:
                from_app = spec_dict["from"]
                raw_fields = spec_dict["fields"]
            except KeyError as exc:
                raise SynapseError(f"subscribe needs {exc} key") from None
            if isinstance(raw_fields, dict):
                fields = dict(raw_fields)
            else:
                fields = {name: name for name in raw_fields}
            for local in fields.values():
                if local not in cls._fields and local not in cls._virtual_fields:
                    raise SynapseError(
                        f"{cls.__name__} has no attribute {local!r} to receive "
                        "the subscription"
                    )
            publisher_mode = self.ecosystem.broker.publisher_mode(from_app)
            default_mode = CAUSAL
            if publisher_mode is not None and rank(publisher_mode) < rank(CAUSAL):
                default_mode = publisher_mode
            mode = validate_mode(spec_dict.get("mode", default_mode))
            spec = SubscriptionSpec(
                from_app=from_app,
                model_name=cls.__name__,
                model_cls=cls,
                fields=fields,
                mode=mode,
                observer=observer,
            )
            self.subscriber.add_subscription(spec)
            self._subscribed.setdefault(cls, []).append(spec)
            readonly.update(
                local for local in fields.values() if local in cls._fields
            )
        cls._readonly_fields = frozenset(readonly)

    def _declare_publication(self, cls: type, fields: List[str]) -> None:
        for name in fields:
            if name not in cls._fields and name not in cls._virtual_fields:
                raise PublicationError(
                    f"{cls.__name__} publishes unknown attribute {name!r}"
                )
        subscribed_locals = {
            local
            for spec in self._subscribed.get(cls, [])
            for local in spec.fields.values()
        }
        overlap = subscribed_locals & set(fields)
        if overlap:
            raise DecoratorViolation(
                f"{cls.__name__} may not re-publish subscribed attributes "
                f"{sorted(overlap)} (§3.1)"
            )
        self._published[cls] = fields
        self.ecosystem.broker.register_publication(
            self.name, cls.__name__, fields, self.delivery_mode
        )

    # ------------------------------------------------------------------
    # Introspection used by the publisher/subscriber engines
    # ------------------------------------------------------------------

    @property
    def broker(self) -> Broker:
        return self.ecosystem.broker

    def published_fields_for(self, model_cls: type) -> Optional[List[str]]:
        return self._published.get(model_cls)

    def subscription_specs_for(self, model_cls: type) -> List[SubscriptionSpec]:
        return self._subscribed.get(model_cls, [])

    def published_models(self) -> List[type]:
        return list(self._published)

    # ------------------------------------------------------------------
    # Controller / background-job scopes (§2, §4.2)
    # ------------------------------------------------------------------

    def controller(self, user: Optional[Any] = None) -> controller_scope:
        return controller_scope(self, user)

    def background_job(self) -> controller_scope:
        """Sidekiq-style job scope: same tracking, no user session."""
        return controller_scope(self, user=None)

    # ------------------------------------------------------------------
    # Read side: derived views + cache tier (docs/read_path.md)
    # ------------------------------------------------------------------

    def enable_views(self, cache: Optional[Any] = None) -> Any:
        """Switch on the subscriber-side read path for this service and
        return its :class:`~repro.views.ViewManager`.

        Declared views are maintained in the apply path (once per
        batch under batched apply) and the replicated cache's per-key
        version watermarks advance with every landed write, so a
        cached read is never staler than the applied causal frontier.
        Idempotent: a second call returns the same manager."""
        if self.views is None:
            from repro.views import ViewManager

            self.views = ViewManager(self, cache=cache)
        return self.views

    # ------------------------------------------------------------------
    # CDC / transactional-outbox front-end (docs/cdc.md)
    # ------------------------------------------------------------------

    def enable_outbox(self) -> Any:
        """Arm this service's transactional outbox and register its CDC
        poller with the ecosystem's :class:`~repro.cdc.CdcManager`.
        Returns the :class:`~repro.cdc.OutboxTable`. Idempotent."""
        if self.outbox is None:
            from repro.cdc import OutboxTable

            manager = self.ecosystem.enable_cdc()
            self.outbox = OutboxTable(self)
            self.cdc_poller = manager.register(self)
        return self.outbox

    def raw_session(self) -> Any:
        """An ORM-bypassing write session: every insert/update/delete
        commits its data row and a sequenced outbox record in the same
        engine transaction, replicated by the CDC poller with the same
        delivery semantics as ORM writes."""
        from repro.cdc import RawSession

        return RawSession(self.enable_outbox())

    # ------------------------------------------------------------------
    # Remote-application guard (subscriber persisting remote updates)
    # ------------------------------------------------------------------

    def is_applying_target(self, model_name: str, row_id: Any) -> bool:
        """True (once) when the subscriber engine is persisting this very
        object from a remote update. The token is one-shot: only the
        engine's own save bypasses the publisher — any further write to
        the same object from a subscriber callback (e.g. a decorator
        updating its decoration) publishes normally (§3.1)."""
        targets = getattr(self._remote_state, "targets", None)
        if not targets:
            return False
        for entry in reversed(targets):
            if (entry["model"], entry["id"]) == (model_name, row_id) \
                    and not entry["used"]:
                entry["used"] = True
                return True
        return False

    @contextmanager
    def applying_remote_scope(self, model_name: Optional[str] = None,
                              row_id: Any = None):
        targets = getattr(self._remote_state, "targets", None)
        if targets is None:
            targets = []
            self._remote_state.targets = targets
        targets.append({"model": model_name, "id": row_id, "used": False})
        try:
            yield
        finally:
            targets.pop()

    # ------------------------------------------------------------------
    # Bootstrap & recovery surface (§4.4)
    # ------------------------------------------------------------------

    @property
    def bootstrap_active(self) -> bool:
        """The ``Synapse.bootstrap?`` predicate of the paper's API."""
        return self.subscriber.bootstrapping

    def current_generation(self) -> int:
        return self.ecosystem.generations.current(self.name)

    def recover_publisher_version_store(self) -> int:
        """Version-store death on the publisher side: bump the generation
        and resume publishing with fresh counters (§4.4)."""
        generation = self.ecosystem.generations.increment(self.name)
        for shard in self.publisher_version_store.kv.shards:
            shard.restart()
            shard.flushall()
        if self.ecosystem.durability is not None:
            self.ecosystem.durability.log_pubgen(self.name, generation)
        return generation

    # ------------------------------------------------------------------
    # Anti-entropy surface (replica audits + targeted repair)
    # ------------------------------------------------------------------

    def audit_replication(self, publisher_name: Optional[str] = None) -> Any:
        """Compare this subscriber's replicas against their publishers:
        Merkle digests locate divergent objects; broker/version-store
        watermarks tell transit lag from §6.5-style loss. Returns an
        :class:`repro.repair.AuditReport`."""
        from repro.repair import ReplicationAuditor

        return ReplicationAuditor(self).audit(publisher_name)

    def repair_replication(
        self,
        publisher_name: Optional[str] = None,
        report: Optional[Any] = None,
        reaudit: bool = True,
    ) -> Any:
        """Targeted anti-entropy: re-publish only divergent objects as
        repair messages (O(divergence), no queue decommission, no
        re-bootstrap). Returns a :class:`repro.repair.RepairResult`."""
        from repro.repair import repair_subscriber

        return repair_subscriber(
            self, publisher_name, report=report, reaudit=reaudit
        )

    def stats(self) -> Dict[str, Any]:
        """Operational counters for dashboards/tests.

        Every value is a read-through view of the ecosystem's
        :class:`MetricsRegistry`; ``ecosystem.metrics.snapshot()`` exposes
        the same counters (and more) under their hierarchical names.
        """
        queue = self.subscriber.queue
        counted = self.ecosystem.metrics.value
        return {
            "service": self.name,
            "delivery_mode": self.delivery_mode,
            "messages_published": self.publisher.messages_published,
            "publish_overhead_mean_ms": self.publisher.overhead.mean() * 1000,
            "messages_processed": counted(f"subscriber.{self.name}.processed"),
            "stale_discarded": counted(f"subscriber.{self.name}.stale_discarded"),
            "duplicates_ignored": counted(f"subscriber.{self.name}.duplicates"),
            "dep_wait_mean_ms": self.subscriber.dep_wait.mean() * 1000,
            "apply_mean_ms": self.subscriber.apply_time.mean() * 1000,
            "queue_depth": len(queue) if queue is not None else 0,
            "bootstrapping": self.subscriber.bootstrapping,
            "generation": self.current_generation(),
        }

    def __repr__(self) -> str:
        return f"<Service {self.name!r} mode={self.delivery_mode}>"
