"""Marshalling model writes into the Fig 6(b) message format.

Each operation record carries the operation kind, the object's full
inheritance chain (so subscribers can consume polymorphic models, §4.1),
its id and the published attributes. Virtual attributes are marshalled
by calling their getters on a hydrated instance.

Marshalling is where a message's body is made: every queue of this
process shares it unparsed (``Message.delivery``), so it is built in
fresh containers, in the shape the JSON wire round trip would have
given it — dict keys sorted, tuples as lists. It is also where a value
JSON cannot carry is refused: a message whose queues are all local is
never encoded, so :func:`wire_value`, which visits every published
value anyway, applies the encoder's accept/reject rule itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.broker.message import Message


def wire_value(value: Any) -> Any:
    """``value`` as the wire delivers it, in containers of its own:
    dicts in key order (keys must be strings — JSON would sort other
    keys and then stringify them), tuples as lists; scalars as is.
    Raises ``TypeError`` for anything ``canonical_json`` would refuse
    (a set, bytes, a ``Decimal``, a ``datetime``, any other object)."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError(f"payload dict keys must be strings: {value!r}")
        return {key: wire_value(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [wire_value(item) for item in value]
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable: "
        f"{value!r}"
    )


def marshal_attributes(
    model_cls: type, row: Dict[str, Any], fields: List[str]
) -> Dict[str, Any]:
    """Published attribute values for one written row.

    Persisted fields come straight from the row; virtual attributes are
    computed through their getters (§3.1).
    """
    out: Dict[str, Any] = {}
    instance = None
    for name in sorted(fields):
        if name in model_cls._fields:
            out[name] = wire_value(row.get(name))
        elif name in model_cls._virtual_fields:
            if instance is None:
                instance = model_cls.from_row(row)
            out[name] = wire_value(getattr(instance, name))
        else:
            raise KeyError(f"{model_cls.__name__} has no published field {name!r}")
    return out


def marshal_operation(
    kind: str, model_cls: type, row: Dict[str, Any], fields: List[str]
) -> Dict[str, Any]:
    attributes: Dict[str, Any] = {}
    if kind in ("create", "update"):
        attributes = marshal_attributes(model_cls, row, fields)
    else:
        # Deletes carry the last published attribute values as well as the
        # id, so DB-less observers can act on them (Fig 5's after_destroy).
        try:
            attributes = marshal_attributes(model_cls, row, fields)
        except Exception:
            attributes = {}
    return {
        "attributes": attributes,
        "id": row.get("id"),
        "operation": kind,
        "types": model_cls.type_chain(),
    }


def build_message(
    app: str,
    operations: List[Dict[str, Any]],
    dependencies: Dict[str, int],
    published_at: float,
    generation: int,
    external_dependencies: Optional[Dict[str, int]] = None,
    bootstrap: bool = False,
    repair: bool = False,
    uid: Optional[str] = None,
    cdc: Optional[int] = None,
) -> Message:
    return Message(
        app=app,
        operations=operations,
        dependencies=dict(sorted(dependencies.items())),
        published_at=published_at,
        generation=generation,
        bootstrap=bootstrap,
        repair=repair,
        external_dependencies=dict(sorted((external_dependencies or {}).items())),
        uid=uid,
        cdc=cdc,
    )
