"""Replica digests: row-hash maps over published-attribute projections.

Divergence detection must work *across* engines — a relational publisher
replicated into document, graph or search subscribers (the
heterogeneous-store norm) — so rows are hashed at the ORM/mapper level
where Synapse already lives: each side projects its raw storage rows
onto the *subscribed remote attribute names* through its model (the
publisher by ``marshal_attributes``, the subscriber by its
subscription's ``project``) and the values are normalised through the
same JSON round trip the wire format uses. Two
replicas that hold the same logical state therefore hash identically no
matter which engine stores them.

A digest is the map ``{object id: row hash}``; two digests compare in
one pass over both maps (:meth:`ModelDigest.divergent_ids`). The whole
map crosses the control plane, so an audit costs O(dataset) reads and
hashes on each side and performs no writes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.marshal import marshal_attributes


def _canonical(value: Any) -> Any:
    """Normalise a value through the wire format's JSON round trip so
    engine-specific representations (tuples vs lists, etc.) compare
    equal across replicas."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def row_digest(projection: Dict[str, Any]) -> str:
    """Hash of one logical row (its projected attribute dict)."""
    payload = json.dumps(_canonical(projection), sort_keys=True)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


@dataclass
class ModelDigest:
    """One replica's digest of one model's published projection."""

    app: str
    model_name: str
    #: Remote (publisher-side) attribute names covered by the digest.
    fields: List[str]
    #: Object id -> hash of its projected row.
    objects: Dict[Any, str]

    def divergent_ids(self, other: "ModelDigest") -> List[Any]:
        """Ids held by one side only, or by both with unequal hashes."""
        if self.fields != other.fields:
            raise ValueError(
                f"digest field sets differ: {self.fields} vs {other.fields}"
            )
        mine, theirs = self.objects, other.objects
        divergent = [i for i, row_hash in mine.items() if theirs.get(i) != row_hash]
        divergent.extend(i for i in theirs if i not in mine)
        return divergent

    def to_dict(self) -> Dict[str, Any]:
        """JSON form: ``objects`` is a list of ``[id, hash]`` pairs, so
        ids keep their JSON type across the wire."""
        return {
            "app": self.app,
            "model_name": self.model_name,
            "fields": list(self.fields),
            "objects": [[row_id, row_hash]
                        for row_id, row_hash in self.objects.items()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModelDigest":
        return cls(
            app=data["app"],
            model_name=data["model_name"],
            fields=list(data["fields"]),
            objects={row_id: row_hash for row_id, row_hash in data["objects"]},
        )


def _raw_rows(model_cls: type) -> List[Dict[str, Any]]:
    """Every row of a model straight from its mapper — no interceptor,
    no read-dependency tracking (audits must not perturb the pipeline)."""
    return model_cls.__mapper__._do_where({}, None, None)


def publisher_model_digest(
    publisher_service: Any,
    model_name: str,
    remote_fields: Optional[List[str]] = None,
) -> Optional[ModelDigest]:
    """Digest of the publisher's authoritative replica of ``model_name``.

    ``remote_fields`` restricts the projection (a subscriber that
    subscribes to a subset must be compared on that subset); defaults to
    every published attribute. Returns None for unknown or DB-less
    (ephemeral) models, which have no replica to digest.
    """
    model_cls = publisher_service.registry.get(model_name)
    if model_cls is None or model_cls.__mapper__ is None:
        return None
    published = publisher_service.published_fields_for(model_cls)
    if published is None or model_cls.__mapper__.db is None:
        return None
    fields = sorted(remote_fields if remote_fields is not None else published)
    # marshal_attributes is the exact wire projection — virtual
    # attributes call their getters, like a real publish would.
    return ModelDigest(
        app=publisher_service.name,
        model_name=model_name,
        fields=fields,
        objects={
            row["id"]: row_digest(marshal_attributes(model_cls, row, fields))
            for row in _raw_rows(model_cls)
        },
    )


def subscriber_model_digest(service: Any, spec: Any) -> Optional[ModelDigest]:
    """Digest of a subscriber's replica, projected back onto the remote
    attribute names by the subscription itself (``spec.project``) — so
    a renamed (``as:``) attribute hashes against its publisher name and
    a virtual one through its getter. ``spec.readable`` is what both
    sides are compared on: a virtual local attribute with no getter is
    not audited."""
    model_cls = spec.model_cls
    if spec.observer or model_cls.__mapper__ is None or model_cls.__mapper__.db is None:
        return None
    return ModelDigest(
        app=service.name,
        model_name=spec.model_name,
        fields=sorted(spec.readable),
        objects={
            row["id"]: row_digest(spec.project(row))
            for row in _raw_rows(model_cls)
        },
    )
