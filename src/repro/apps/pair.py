"""The one-model replicated pair: a document-store publisher and its
relational replica.

The smallest heterogeneous-database ecosystem the paper describes (§3.1)
and the shape every scenario, demo and conformance schedule drives: one
model published from a MongoLike service and subscribed, attribute for
attribute, by a PostgresLike service. Subsystems (flow, durability,
views, outbox, tracing) are armed by the caller on what this returns —
or on the ecosystem handed in — never by a flag here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model


def _model(kinds: Dict[str, type]) -> type:
    """An int attribute defaults to 0, anything else to None."""
    return type(Model)("Replicated", (Model,), {
        name: Field(kind, default=0 if kind is int else None)
        for name, kind in kinds.items()
    })


def build_replicated_pair(
    ecosystem: Optional[Ecosystem] = None,
    fields: Optional[Dict[str, type]] = None,
    model: str = "Doc",
    mode: str = "causal",
    pub: str = "pub",
    sub: str = "sub",
) -> Tuple[Ecosystem, Any, Any, type]:
    """Declare ``model`` with ``fields`` (attribute -> type, default
    ``{"name": str}``) on publisher ``pub`` (MongoLike ``<pub>-db``,
    delivering in ``mode``) and subscribe every attribute of it on
    ``sub`` (PostgresLike ``<sub>-db``) under the same names. Returns
    ``(ecosystem, publisher service, subscriber service, publisher model
    class)``; the replica class is ``subscriber.registry[model]``."""
    eco = ecosystem if ecosystem is not None else Ecosystem()
    fields = fields or {"name": str}
    publisher = eco.service(
        pub, database=MongoLike(f"{pub}-db"), delivery_mode=mode
    )
    model_cls = publisher.model(publish=list(fields), name=model)(_model(fields))
    subscriber = eco.service(sub, database=PostgresLike(f"{sub}-db"))
    subscriber.model(
        subscribe={"from": pub, "fields": list(fields), "mode": mode}, name=model
    )(_model(fields))
    return eco, publisher, subscriber, model_cls
