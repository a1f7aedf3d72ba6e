"""Replica digests: Merkle trees over published-attribute projections.

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

Object hashes are bucketed by a stable hash of the object id into a
fixed number of leaves and folded into a Merkle tree, so two trees built
independently on either side align structurally and
:meth:`MerkleTree.diff` can descend only into differing subtrees —
comparisons scale with divergence, not dataset size.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.marshal import marshal_attributes
from repro.versionstore.hashring import stable_hash

#: Default leaf count: plenty of descent resolution for test/demo-sized
#: datasets while keeping empty-tree construction trivially cheap.
DEFAULT_LEAVES = 64
DEFAULT_FANOUT = 4


def _canonical(value: Any) -> Any:
    """Normalise a value through the wire format's JSON round trip so
    engine-specific representations (tuples vs lists, etc.) compare
    equal across replicas."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def _id_key(row_id: Any) -> str:
    """Stable leaf-bucket key for an object id (ids survive the JSON
    wire format unchanged, so both sides derive the same key)."""
    return json.dumps(row_id, sort_keys=True, default=str)


def row_digest(projection: Dict[str, Any]) -> str:
    """Hash of one logical row (its projected attribute dict)."""
    payload = json.dumps(_canonical(projection), sort_keys=True)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


@dataclass
class MerkleDiff:
    """Result of a Merkle descent between two aligned trees."""

    #: Object ids whose row hashes differ or that exist on one side only.
    divergent_ids: List[Any]
    #: Internal + leaf node comparisons performed during the descent —
    #: the evidence that detection work scales with divergence.
    nodes_compared: int


class MerkleTree:
    """A fixed-shape Merkle tree over ``{id: row_hash}``.

    ``leaves`` and ``fanout`` fix the shape, so any two trees built with
    the same parameters align node-for-node and can be diffed by
    descent regardless of which objects each side holds.
    """

    def __init__(
        self,
        object_hashes: Dict[Any, str],
        leaves: int = DEFAULT_LEAVES,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        if leaves < 1:
            raise ValueError("need at least one leaf")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.leaves = leaves
        self.fanout = fanout
        #: leaf index -> {id_key: (original_id, row_hash)}
        self._buckets: Dict[int, Dict[str, Tuple[Any, str]]] = {}
        for row_id, row_hash in object_hashes.items():
            key = _id_key(row_id)
            bucket = self._buckets.setdefault(self._leaf_for(key), {})
            bucket[key] = (row_id, row_hash)
        self._levels = self._build_levels()

    def _leaf_for(self, id_key: str) -> int:
        return stable_hash(id_key) % self.leaves

    def _build_levels(self) -> List[List[str]]:
        """``levels[0]`` is the leaf row; the last level is ``[root]``."""
        leaf_level: List[str] = []
        for i in range(self.leaves):
            bucket = self._buckets.get(i)
            if not bucket:
                leaf_level.append("")  # empty bucket: sentinel hash
                continue
            payload = json.dumps(
                sorted((key, row_hash) for key, (_, row_hash) in bucket.items())
            )
            leaf_level.append(hashlib.sha1(payload.encode("utf-8")).hexdigest())
        levels = [leaf_level]
        while len(levels[-1]) > 1:
            below = levels[-1]
            above: List[str] = []
            for start in range(0, len(below), self.fanout):
                chunk = below[start:start + self.fanout]
                if any(chunk):
                    joined = "|".join(chunk)
                    above.append(hashlib.sha1(joined.encode("utf-8")).hexdigest())
                else:
                    above.append("")  # all-empty subtree stays sentinel
            levels.append(above)
        return levels

    @property
    def root(self) -> str:
        return self._levels[-1][0]

    @property
    def total_objects(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def has(self, row_id: Any) -> bool:
        """Whether this replica holds ``row_id`` (multi-publisher audits
        must ignore rows owned by a different publisher)."""
        key = _id_key(row_id)
        return key in self._buckets.get(self._leaf_for(key), {})

    def diff(self, other: "MerkleTree") -> MerkleDiff:
        """Merkle descent: compare roots, recurse only into differing
        subtrees, and at differing leaves compare per-object hashes."""
        if (self.leaves, self.fanout) != (other.leaves, other.fanout):
            raise ValueError("cannot diff trees of different shapes")
        nodes_compared = 1
        if self.root == other.root:
            return MerkleDiff(divergent_ids=[], nodes_compared=nodes_compared)
        divergent: List[Any] = []
        # Frontier of differing node indices, walked from root to leaves.
        frontier = [0]
        for level in range(len(self._levels) - 2, -1, -1):
            next_frontier: List[int] = []
            for parent in frontier:
                start = parent * self.fanout
                stop = min(start + self.fanout, len(self._levels[level]))
                for child in range(start, stop):
                    nodes_compared += 1
                    if self._levels[level][child] != other._levels[level][child]:
                        next_frontier.append(child)
            frontier = next_frontier
            if not frontier:
                break
        for leaf in frontier:
            divergent.extend(self._diff_bucket(other, leaf))
        return MerkleDiff(divergent_ids=divergent, nodes_compared=nodes_compared)

    def _diff_bucket(self, other: "MerkleTree", leaf: int) -> Iterable[Any]:
        mine = self._buckets.get(leaf, {})
        theirs = other._buckets.get(leaf, {})
        for key in sorted(set(mine) | set(theirs)):
            here, there = mine.get(key), theirs.get(key)
            if here is None:
                yield there[0]
            elif there is None or here[1] != there[1]:
                yield here[0]

    # -- wire form (control-plane digest exchange) ---------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON form: shape parameters + per-object hashes. The levels are
        *not* shipped — both sides rebuild them deterministically, so a
        tampered/truncated payload cannot desynchronize the descent."""
        objects = []
        for bucket in self._buckets.values():
            for row_id, row_hash in bucket.values():
                objects.append([row_id, row_hash])
        return {"leaves": self.leaves, "fanout": self.fanout,
                "objects": objects}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MerkleTree":
        return cls(
            {row_id: row_hash for row_id, row_hash in data["objects"]},
            leaves=data["leaves"],
            fanout=data["fanout"],
        )


@dataclass
class ModelDigest:
    """One replica's digest of one model's published projection."""

    app: str
    model_name: str
    #: Remote (publisher-side) attribute names covered by the digest.
    fields: List[str]
    tree: MerkleTree
    built_from: int = 0  # rows scanned
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def root(self) -> str:
        return self.tree.root

    def divergent_ids(self, other: "ModelDigest") -> MerkleDiff:
        if self.fields != other.fields:
            raise ValueError(
                f"digest field sets differ: {self.fields} vs {other.fields}"
            )
        return self.tree.diff(other.tree)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "model_name": self.model_name,
            "fields": list(self.fields),
            "built_from": self.built_from,
            "tree": self.tree.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModelDigest":
        return cls(
            app=data["app"],
            model_name=data["model_name"],
            fields=list(data["fields"]),
            tree=MerkleTree.from_dict(data["tree"]),
            built_from=data.get("built_from", 0),
        )


def _raw_rows(model_cls: type) -> List[Dict[str, Any]]:
    """Every row of a model straight from its mapper — no interceptor,
    no read-dependency tracking (audits must not perturb the pipeline)."""
    return model_cls.__mapper__._do_where({}, None, None)


def publisher_model_digest(
    publisher_service: Any,
    model_name: str,
    remote_fields: Optional[List[str]] = None,
    leaves: int = DEFAULT_LEAVES,
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
    hashes: Dict[Any, str] = {}
    rows = _raw_rows(model_cls)
    for row in rows:
        # marshal_attributes is the exact wire projection — virtual
        # attributes call their getters, like a real publish would.
        hashes[row["id"]] = row_digest(marshal_attributes(model_cls, row, fields))
    return ModelDigest(
        app=publisher_service.name,
        model_name=model_name,
        fields=fields,
        tree=MerkleTree(hashes, leaves=leaves),
        built_from=len(rows),
    )


def subscriber_model_digest(
    service: Any,
    spec: Any,
    leaves: int = DEFAULT_LEAVES,
) -> Optional[ModelDigest]:
    """Digest of a subscriber's replica, projected back onto the remote
    attribute names by the subscription itself (``spec.project``) — so
    a renamed (``as:``) attribute hashes against its publisher name and
    a virtual one through its getter. ``spec.readable`` is what both
    sides are compared on: a virtual local attribute with no getter is
    not audited."""
    model_cls = spec.model_cls
    if spec.observer or model_cls.__mapper__ is None or model_cls.__mapper__.db is None:
        return None
    hashes: Dict[Any, str] = {}
    rows = _raw_rows(model_cls)
    for row in rows:
        hashes[row["id"]] = row_digest(spec.project(row))
    return ModelDigest(
        app=service.name,
        model_name=spec.model_name,
        fields=sorted(spec.readable),
        tree=MerkleTree(hashes, leaves=leaves),
        built_from=len(rows),
    )
