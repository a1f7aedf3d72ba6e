"""Live schema migrations (§4.3) and replication-based DB migration (§6.5).

The rules the paper states:

1. publisher schema changes must be invisible to subscribers — before
   dropping a published column, shadow it with a virtual attribute;
2. the semantics (type) of a published attribute must never change —
   publish a new attribute instead;
3. when publisher and subscriber both gain an attribute, the publisher
   deploys first (enforced at subscription time), and a partial
   bootstrap back-fills the new data.

:class:`LiveMigrator` enforces 1-2 and automates the partial bootstrap of
3. :func:`replicate_service` implements Crowdtap's zero-downtime engine
swap (§6.5): stand up a clone service on a new DB, bootstrap it from the
original, keep it in sync, and switch the load balancer when ready.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.bootstrap import bootstrap_subscriber
from repro.errors import MigrationError
from repro.orm.fields import VirtualField


class LiveMigrator:
    """Schema-evolution helper for one publishing service."""

    def __init__(self, service: Any) -> None:
        self.service = service

    # -- rule 1: isolation -------------------------------------------------

    def drop_published_column(self, model_cls: type, name: str) -> None:
        """Refuse to silently drop a published attribute: a same-named
        virtual attribute must exist first (rule 1)."""
        fields = self.service.published_fields_for(model_cls) or []
        if name in fields and name not in model_cls._virtual_fields:
            raise MigrationError(
                f"{name!r} is published by {model_cls.__name__}; add a "
                "virtual attribute of the same name before dropping the "
                "column (§4.3 rule 1)"
            )
        db = self.service.database
        if hasattr(db, "drop_column"):
            db.drop_column(model_cls.table_name(), name)
        model_cls._fields.pop(name, None)

    def shadow_with_virtual(
        self, model_cls: type, name: str, getter: Callable, setter: Optional[Callable] = None
    ) -> None:
        """Install a virtual attribute shadowing (or replacing) a column."""
        virtual = VirtualField(getter=getter, setter=setter)
        virtual.name = name
        model_cls._virtual_fields[name] = virtual
        setattr(model_cls, name, virtual)

    # -- rule 2: published semantics are immutable -----------------------------

    def change_attribute_type(self, model_cls: type, name: str, new_type: type) -> None:
        fields = self.service.published_fields_for(model_cls) or []
        if name in fields:
            raise MigrationError(
                f"cannot change the type of published attribute "
                f"{model_cls.__name__}.{name}; publish a new attribute "
                "instead (§4.3 rule 2)"
            )
        field = model_cls._fields.get(name)
        if field is None:
            raise MigrationError(f"{model_cls.__name__} has no field {name!r}")
        field.py_type = new_type

    # -- rule 3: additive evolution ------------------------------------------

    def add_field(self, model_cls: type, name: str, py_type: Optional[type] = None,
                  default: Any = None) -> None:
        """Add a new persisted attribute to a live model (plus the column
        on schema-ful engines)."""
        from repro.orm.fields import Field as ORMField

        if name in model_cls._fields:
            raise MigrationError(f"{model_cls.__name__} already has {name!r}")
        field = ORMField(py_type, default=default)
        field.name = name
        model_cls._fields[name] = field
        setattr(model_cls, name, field)
        db = self.service.database
        if db is not None and hasattr(db, "add_column"):
            from repro.orm.engine_mappers import _column_type_for
            from repro.databases.relational.schema import Column

            db.add_column(
                model_cls.table_name(),
                Column(name, _column_type_for(py_type), default=default),
            )

    def publish_new_attribute(self, model_cls: type, name: str) -> None:
        """Extend a live publication with a new attribute."""
        if name not in model_cls._fields and name not in model_cls._virtual_fields:
            raise MigrationError(f"{model_cls.__name__} has no attribute {name!r}")
        fields = self.service._published.get(model_cls)
        if fields is None:
            raise MigrationError(f"{model_cls.__name__} is not published")
        if name in fields:
            return
        fields.append(name)
        self.service.ecosystem.broker.register_publication(
            self.service.name, model_cls.__name__, [name], self.service.delivery_mode
        )

    @staticmethod
    def backfill(subscriber_service: Any, publisher_name: Optional[str] = None) -> int:
        """Partial bootstrap so subscribers digest newly-published data."""
        return len(bootstrap_subscriber(subscriber_service, publisher_name))


def replicate_service(
    ecosystem: Any,
    source_name: str,
    clone_name: str,
    database: Any,
    model_fields: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Any:
    """Zero-downtime DB migration via replication (§6.5).

    Creates ``clone_name`` subscribed to everything ``source_name``
    publishes, on a brand-new ``database``, then bootstraps it. The
    caller keeps both running (dual-run QA) and eventually flips traffic.

    ``model_fields`` optionally narrows per-model subscribed fields;
    otherwise every published field of every model is mirrored.
    """
    from repro.orm.fields import Field
    from repro.orm.model import Model

    control = ecosystem.control
    if not control.known(source_name):
        raise MigrationError(f"unknown source service {source_name!r}")
    clone = ecosystem.service(clone_name, database=database)
    broker = ecosystem.broker
    for model_name in broker.published_models(source_name):
        fields = broker.published_fields(source_name, model_name)
        wanted = (model_fields or {}).get(model_name)
        if wanted is not None:
            fields = [f for f in fields if f in wanted]
        # Field *types* come over the control plane as type names — the
        # clone never sees the source's Field objects.
        schema = control.model_schema(source_name, model_name) or {}
        namespace: Dict[str, Any] = {}
        for field_name in fields:
            namespace[field_name] = Field(
                _PY_TYPES.get(schema.get(field_name))
            )
        clone_model = type(model_name, (Model,), namespace)
        clone.model(subscribe={"from": source_name, "fields": fields})(clone_model)
    bootstrap_subscriber(clone)
    return clone


#: Wire type names a replicated clone can map back onto python types;
#: anything else (custom classes) degrades to an untyped Field, exactly
#: like a source model that was missing from the registry used to.
_PY_TYPES: Dict[str, type] = {
    "str": str, "int": int, "float": float, "bool": bool,
    "list": list, "dict": dict, "tuple": tuple, "bytes": bytes,
}
