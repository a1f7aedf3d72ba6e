"""The one-model replicated pair: a document-store publisher and its
relational replica.

The smallest heterogeneous-database ecosystem the paper describes (§3.1)
and the shape every scenario, demo and conformance schedule drives: one
model published from a MongoLike service and subscribed, attribute for
attribute, by a PostgresLike service. Subsystems (flow, durability,
views, outbox, tracing) are armed by the caller on what this returns —
or on the ecosystem handed in — never by a flag here.

The builder declares only what the ecosystem it is given still lacks: a
service already registered under ``pub`` or ``sub`` is reused, and so is
a model already in the publisher's registry. Every variation is one more
call or one declaration ahead of it, never a parameter:

- fan-out: call it again on the same ecosystem with a new ``sub=``;
- another engine or a transactional pair: declare the service first,
  e.g. ``eco.service(pub, database=PostgresLike(...))``, then call the
  builder with that ecosystem;
- an unpublished session model beside the replica: one
  ``@pub.model(name="User")`` by the caller.

A renamed or virtual mapping is a different declaration and is written
by hand.
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
    publisher = eco.local_service(pub) or eco.service(
        pub, database=MongoLike(f"{pub}-db"), delivery_mode=mode)
    model_cls = publisher.registry.get(model) or publisher.model(
        publish=list(fields), name=model)(_model(fields))
    subscriber = eco.local_service(sub) or eco.service(sub, database=PostgresLike(f"{sub}-db"))
    subscriber.model(
        subscribe={"from": pub, "fields": list(fields), "mode": mode}, name=model
    )(_model(fields))
    return eco, publisher, subscriber, model_cls
