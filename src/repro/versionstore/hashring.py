"""Consistent-hash ring (Dynamo-style) for sharding version stores."""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, List, Tuple


def stable_hash(value: str) -> int:
    """Deterministic across processes/runs (unlike builtin ``hash``)."""
    return int.from_bytes(hashlib.md5(value.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Maps keys to nodes with virtual nodes for balance.

    Adding a node only remaps the keys its ring segments take over — the
    property that lets Synapse grow the version-store fleet without a
    global reshuffle.
    """

    def __init__(self, nodes: List[Any], vnodes: int = 64) -> None:
        if not nodes:
            raise ValueError("hash ring needs at least one node")
        self.vnodes = vnodes
        self._ring: List[Tuple[int, Any]] = []
        self._nodes: List[Any] = []
        for node in nodes:
            self.add_node(node)

    def add_node(self, node: Any) -> None:
        self._nodes.append(node)
        label = getattr(node, "name", str(node))
        for i in range(self.vnodes):
            point = stable_hash(f"{label}#{i}")
            bisect.insort(self._ring, (point, node))

    def node_for(self, key: str) -> Any:
        if len(self._nodes) == 1:
            return self._nodes[0]  # nothing to choose: skip the hash
        point = stable_hash(key)
        idx = bisect.bisect_right(self._ring, (point, object())) % len(self._ring)
        return self._ring[idx][1]

    @property
    def nodes(self) -> List[Any]:
        return list(self._nodes)
