"""Neo4j-like labelled property graph engine."""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.databases.base import Database
from repro.errors import DatabaseError

Props = Dict[str, Any]


class GraphDatabase(Database):
    """Nodes with labels and properties; typed, optionally-directed edges
    stored in adjacency lists. Traversals are BFS-based, the access
    pattern Neo4j optimises and the reason the paper's recommendation
    subscriber re-shapes friendship rows into edges (Example 2)."""

    engine_family = "graph"
    supports_returning = True
    supports_transactions = False

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self._nodes: Dict[int, Props] = {}
        self._node_labels: Dict[int, str] = {}
        self._by_label: Dict[str, Set[int]] = {}
        # node_id -> edge_type -> set of neighbour node ids
        self._out: Dict[int, Dict[str, Set[int]]] = {}
        self._in: Dict[int, Dict[str, Set[int]]] = {}
        self._id_seq = itertools.count(1)

    # -- nodes -----------------------------------------------------------

    def create_node(
        self, label: str, properties: Optional[Props] = None, node_id: Optional[int] = None
    ) -> Props:
        with self._lock:
            self._charge_write()
            props = dict(properties or {})
            if node_id is None:
                node_id = props.get("id")
            if node_id is None:
                node_id = next(self._id_seq)
            else:
                current = next(self._id_seq)
                self._id_seq = itertools.count(max(current, int(node_id) + 1))
            if node_id in self._nodes:
                raise DatabaseError(f"node {node_id} already exists")
            props["id"] = node_id
            self._nodes[node_id] = props
            self._node_labels[node_id] = label
            self._by_label.setdefault(label, set()).add(node_id)
            return dict(props)

    def update_node(self, node_id: int, properties: Props) -> Props:
        with self._lock:
            self._charge_write()
            node = self._require_node(node_id)
            node.update(properties)
            node["id"] = node_id
            return dict(node)

    def delete_node(self, node_id: int) -> Optional[Props]:
        """Delete a node and all its edges (DETACH DELETE)."""
        with self._lock:
            self._charge_write()
            self.stats.deletes += 1
            node = self._nodes.pop(node_id, None)
            if node is None:
                return None
            label = self._node_labels.pop(node_id)
            self._by_label[label].discard(node_id)
            for neighbour_map, reverse in ((self._out, self._in), (self._in, self._out)):
                for edge_type, neighbours in neighbour_map.pop(node_id, {}).items():
                    for other in neighbours:
                        reverse.get(other, {}).get(edge_type, set()).discard(node_id)
            return dict(node)

    def get_node(self, node_id: int) -> Optional[Props]:
        with self._lock:
            self._charge_read()
            self.stats.index_lookups += 1
            node = self._nodes.get(node_id)
            return dict(node) if node is not None else None

    def find_nodes(
        self, label: str, properties: Optional[Props] = None
    ) -> List[Props]:
        """All nodes with the label matching every given property."""
        with self._lock:
            self._charge_read()
            self.stats.scans += 1
            properties = properties or {}
            out = []
            for node_id in sorted(self._by_label.get(label, set())):
                node = self._nodes.get(node_id)
                if node is None:
                    continue
                if all(node.get(k) == v for k, v in properties.items()):
                    out.append(dict(node))
            return out

    def count_nodes(self, label: Optional[str] = None) -> int:
        if label is None:
            return len(self._nodes)
        return len(self._by_label.get(label, ()))

    # -- edges -----------------------------------------------------------

    def create_edge(
        self, src: int, edge_type: str, dst: int, directed: bool = True
    ) -> None:
        with self._lock:
            self._charge_write()
            self._require_node(src)
            self._require_node(dst)
            self._out.setdefault(src, {}).setdefault(edge_type, set()).add(dst)
            self._in.setdefault(dst, {}).setdefault(edge_type, set()).add(src)
            if not directed:
                self._out.setdefault(dst, {}).setdefault(edge_type, set()).add(src)
                self._in.setdefault(src, {}).setdefault(edge_type, set()).add(dst)

    def delete_edge(
        self, src: int, edge_type: str, dst: int, directed: bool = True
    ) -> None:
        with self._lock:
            self._charge_write()
            self.stats.deletes += 1
            self._out.get(src, {}).get(edge_type, set()).discard(dst)
            self._in.get(dst, {}).get(edge_type, set()).discard(src)
            if not directed:
                self._out.get(dst, {}).get(edge_type, set()).discard(src)
                self._in.get(src, {}).get(edge_type, set()).discard(dst)

    def has_edge(self, src: int, edge_type: str, dst: int) -> bool:
        return dst in self._out.get(src, {}).get(edge_type, set())

    # -- traversal ---------------------------------------------------------

    def recommend(
        self,
        node_id: int,
        relation: str,
        liked: str,
        depth: int = 2,
    ) -> List[Tuple[int, int]]:
        """'Things my network likes that I don't': walk ``relation``
        breadth-first to ``depth``, collect ``liked`` targets, rank by
        endorsement count. This is the friends-of-friends query of
        Example 2."""
        with self._lock:
            self._charge_read()
            self._require_node(node_id)
            network = {node_id}
            frontier = [node_id]
            for _ in range(depth):
                reached = []
                for current in frontier:
                    for neighbour in self._out.get(current, {}).get(relation, ()):
                        if neighbour not in network:
                            network.add(neighbour)
                            reached.append(neighbour)
                frontier = reached
            network.discard(node_id)
            own = self._out.get(node_id, {}).get(liked, set())
            counts: Dict[int, int] = {}
            for other in network:
                for target in self._out.get(other, {}).get(liked, set()):
                    if target not in own:
                        counts[target] = counts.get(target, 0) + 1
            return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))

    # -- internals -----------------------------------------------------------

    def _require_node(self, node_id: int) -> Props:
        node = self._nodes.get(node_id)
        if node is None:
            raise DatabaseError(f"no node {node_id}")
        return node


class Neo4jLike(GraphDatabase):
    """Neo4j stand-in."""

    engine_family = "neo4j"
