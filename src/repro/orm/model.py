"""The Model base class: attributes, persistence, callbacks.

This is the ActiveRecord-style surface the paper builds on (§2): create
an object, set attributes, ``save()``; the mapper persists it and active
model callbacks fire before/after every operation.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Dict, List, Optional, Type

from repro.errors import ORMError, ReadOnlyAttributeError, RecordNotFound
from repro.orm.associations import BelongsTo, snake_case
from repro.orm.callbacks import collect_callbacks, run_callbacks
from repro.orm.fields import Field, VirtualField
from repro.orm.mapper import Mapper, mapper_for


def _default_now() -> float:
    from repro.clock import DEFAULT_CLOCK

    return DEFAULT_CLOCK.now()


def pluralize(word: str) -> str:
    if word.endswith("y") and word[-2:-1] not in "aeiou":
        return word[:-1] + "ies"
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    return word + "s"


@functools.lru_cache(maxsize=1024)
def table_for_type(type_name: str) -> str:
    """Table of the model named ``type_name``: a pure function of the
    name that every write, read and apply asks for, so it is computed
    once per name."""
    return pluralize(snake_case(type_name))


class ModelMeta(type):
    """Collects fields, virtual fields, associations and callbacks."""

    def __new__(mcls, name: str, bases: tuple, namespace: dict) -> type:
        cls = super().__new__(mcls, name, bases, namespace)
        fields: Dict[str, Field] = {}
        virtuals: Dict[str, VirtualField] = {}
        for base in reversed(bases):
            fields.update(getattr(base, "_fields", {}))
            virtuals.update(getattr(base, "_virtual_fields", {}))
        # belongs_to associations implicitly declare their foreign key.
        for attr_name, value in list(namespace.items()):
            if isinstance(value, BelongsTo) and value.foreign_key not in namespace:
                fk_field = Field(int)
                fk_field.name = value.foreign_key
                setattr(cls, value.foreign_key, fk_field)
                fields[value.foreign_key] = fk_field
        for attr_name, value in namespace.items():
            if isinstance(value, Field):
                fields[attr_name] = value
            elif isinstance(value, VirtualField):
                virtuals[attr_name] = value
        cls._fields = fields
        cls._virtual_fields = virtuals
        cls._callbacks = collect_callbacks(namespace, bases)
        # The model classes of the MRO, root excluded (it comes last):
        # what :meth:`Model.type_chain` names, walked once per class.
        cls._lineage = tuple(k for k in cls.__mro__ if isinstance(k, ModelMeta))[:-1]
        return cls


class Model(metaclass=ModelMeta):
    """Base class for application models.

    Subclasses declare :class:`Field`s and are bound to a database with
    :func:`bind_model` (or through a Synapse ``Service``).
    """

    id = Field(int)

    __mapper__: Optional[Mapper] = None
    #: name -> model class, shared within one service.
    _registry: Dict[str, type] = {}
    #: Attributes owned by another service; writes are rejected unless the
    #: Synapse subscriber is applying a remote update (§3.1).
    _readonly_fields: frozenset = frozenset()
    _guard_state = threading.local()

    def __init__(self, **attrs: Any) -> None:
        self._attributes: Dict[str, Any] = {
            name: field.default_value()
            for name, field in self._fields.items()
            if name not in attrs
        }
        self._new_record = True
        self._assign(attrs)

    # -- attribute plumbing -------------------------------------------------

    def _write_attribute(self, name: str, value: Any) -> None:
        if (
            name in self._readonly_fields
            and not getattr(self._guard_state, "suspended", False)
        ):
            raise ReadOnlyAttributeError(
                f"{type(self).__name__}.{name} is subscribed from another "
                "service and is read-only here"
            )
        self._attributes[name] = value

    def _assign(self, attrs: Dict[str, Any]) -> None:
        """Write ``attrs``: a declared field straight through
        :meth:`_write_attribute`, anything else (a virtual attribute, an
        association, an unknown name) through ``setattr``."""
        fields = self._fields
        for name, value in attrs.items():
            if name in fields:
                self._write_attribute(name, value)
            else:
                setattr(self, name, value)

    @classmethod
    def _suspend_readonly_guard(cls):
        """Context manager letting the Synapse subscriber write subscribed
        attributes while applying remote updates."""
        return _GuardSuspension(cls._guard_state)

    def __setattr__(self, name: str, value: Any) -> None:
        # Unknown public names would silently become plain instance
        # attributes and never persist; fail loudly instead.
        if (
            not name.startswith("_")
            and name not in self._fields
            and name not in self._virtual_fields
            and not hasattr(type(self), name)
        ):
            raise ORMError(f"{type(self).__name__} has no attribute {name!r}")
        super().__setattr__(name, value)

    # -- class-level metadata --------------------------------------------------

    @classmethod
    def table_name(cls) -> str:
        return table_for_type(cls.__name__)

    @classmethod
    def persisted_fields(cls) -> Dict[str, Field]:
        return dict(cls._fields)

    @classmethod
    def type_chain(cls) -> List[str]:
        """Class names from this model up to (excluding) Model — the
        inheritance tree marshalled for polymorphic subscribers (§4.1).
        A fresh list each call: it becomes part of a message body."""
        return [klass.__name__ for klass in cls._lineage]

    @classmethod
    def _mapper(cls) -> Mapper:
        if cls.__mapper__ is None:
            raise ORMError(f"model {cls.__name__} is not bound to a database")
        return cls.__mapper__

    # -- persistence -----------------------------------------------------------

    def to_attributes(self) -> Dict[str, Any]:
        """Persisted attribute values."""
        attributes = self._attributes
        return {name: attributes.get(name) for name in self._fields}

    def save(self) -> "Model":
        """Persist the object (INSERT when new, UPDATE otherwise)."""
        self._touch_timestamps()
        callbacks = self._callbacks
        new = self._new_record
        kind = "create" if new else "update"
        for name in callbacks["before_save"] + callbacks[f"before_{kind}"]:
            getattr(self, name)()
        attrs = self.to_attributes()
        if new:
            row = self._mapper().insert(attrs)
        else:
            row = self._mapper().update(attrs.pop("id"), attrs)
        self._load_row(row)
        self._new_record = False
        for name in callbacks[f"after_{kind}"] + callbacks["after_save"]:
            getattr(self, name)()
        return self

    def update(self, **attrs: Any) -> "Model":
        self._assign(attrs)
        return self.save()

    def destroy(self) -> "Model":
        if self._new_record or self.id is None:
            raise ORMError("cannot destroy an unsaved record")
        run_callbacks(self, "before_destroy")
        self._mapper().delete(self.id)
        run_callbacks(self, "after_destroy")
        return self

    def _load_row(self, row: Dict[str, Any]) -> None:
        attributes = self._attributes
        for name in self._fields:
            if name in row:
                attributes[name] = row[name]

    def _touch_timestamps(self) -> None:
        """ActiveRecord-style automatic timestamps: models declaring
        ``created_at``/``updated_at`` fields get them maintained."""
        if "created_at" not in self._fields and "updated_at" not in self._fields:
            return
        clock = getattr(getattr(type(self), "_service", None), "ecosystem", None)
        now = clock.clock.now() if clock is not None else _default_now()
        if "created_at" in self._fields and self._new_record \
                and self._attributes.get("created_at") is None:
            self._attributes["created_at"] = now
        if "updated_at" in self._fields:
            self._attributes["updated_at"] = now

    @property
    def new_record(self) -> bool:
        return self._new_record

    # -- class-level query API ----------------------------------------------------

    @classmethod
    def create(cls, **attrs: Any) -> "Model":
        instance = cls(**attrs)
        instance.save()
        return instance

    @classmethod
    def _instance(cls, attributes: Dict[str, Any], new_record: bool) -> "Model":
        """An instance over ``attributes`` without ``__init__``: no
        callbacks."""
        instance = cls.__new__(cls)
        # Private names only, which ``__setattr__`` would let through.
        instance.__dict__.update(_attributes=attributes, _new_record=new_record)
        return instance

    @classmethod
    def from_row(cls, row: Dict[str, Any]) -> "Model":
        """Instantiate from a storage row without firing callbacks."""
        attributes = {
            name: row[name] if name in row else field.default_value()
            for name, field in cls._fields.items()
        }
        return cls._instance(attributes, new_record=False)

    @classmethod
    def find(cls, row_id: Any) -> "Model":
        row = cls._mapper().find(row_id)
        if row is None:
            raise RecordNotFound(f"{cls.__name__} id={row_id} not found")
        return cls.from_row(row)

    @classmethod
    def find_by(cls, **conditions: Any) -> Optional["Model"]:
        rows = cls._mapper().where(conditions, limit=1)
        return cls.from_row(rows[0]) if rows else None

    @classmethod
    def find_or_initialize(cls, row_id: Any) -> "Model":
        """The subscriber's find-or-new step (§4.1)."""
        row = cls._mapper().find(row_id)
        if row is not None:
            return cls.from_row(row)
        attributes = {name: field.default_value() for name, field in cls._fields.items()}
        attributes["id"] = row_id
        return cls._instance(attributes, new_record=True)

    @classmethod
    def where(cls, **conditions: Any) -> List["Model"]:
        limit = conditions.pop("_limit", None)
        order_by = conditions.pop("_order_by", None)
        rows = cls._mapper().where(conditions, limit=limit, order_by=order_by)
        return [cls.from_row(row) for row in rows]

    @classmethod
    def all(cls) -> List["Model"]:
        return cls.where()

    @classmethod
    def count(cls, **conditions: Any) -> int:
        return cls._mapper().count(conditions)

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.id is not None
            and self.id == other.id  # type: ignore[union-attr]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.id))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_attributes()!r}>"


class _GuardSuspension:
    def __init__(self, state: threading.local) -> None:
        self._state = state

    def __enter__(self) -> None:
        self._previous = getattr(self._state, "suspended", False)
        self._state.suspended = True

    def __exit__(self, exc_type, exc, tb) -> None:
        self._state.suspended = self._previous


def bind_model(
    model_cls: Type[Model],
    db: Any,
    registry: Optional[Dict[str, type]] = None,
    mapper: Optional[Mapper] = None,
) -> Type[Model]:
    """Bind a model class to a database engine (standalone ORM use;
    Synapse services call this through ``Service.model``)."""
    chosen = mapper if mapper is not None else mapper_for(db)
    chosen.bind(model_cls)
    model_cls.__mapper__ = chosen
    if registry is not None:
        model_cls._registry = registry
        registry[model_cls.__name__] = model_cls
    else:
        # Give each standalone model its own registry containing itself.
        model_cls._registry = {model_cls.__name__: model_cls}
    return model_cls
