"""Neo4j-like labelled property graph engine."""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

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
        self._edge_props: Dict[Tuple[int, str, int], Props] = {}
        self._id_seq = itertools.count(1)
        # label -> property -> value -> node ids (exact-match index)
        self._prop_index: Dict[Tuple[str, str], Dict[Any, Set[int]]] = {}

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
            self._index_node(label, node_id, props)
            return dict(props)

    def update_node(self, node_id: int, properties: Props) -> Props:
        with self._lock:
            self._charge_write()
            node = self._require_node(node_id)
            label = self._node_labels[node_id]
            self._unindex_node(label, node_id, node)
            node.update(properties)
            node["id"] = node_id
            self._index_node(label, node_id, node)
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
            self._unindex_node(label, node_id, node)
            for neighbour_map, reverse in ((self._out, self._in), (self._in, self._out)):
                for edge_type, neighbours in neighbour_map.pop(node_id, {}).items():
                    for other in neighbours:
                        reverse.get(other, {}).get(edge_type, set()).discard(node_id)
            self._edge_props = {
                key: props
                for key, props in self._edge_props.items()
                if key[0] != node_id and key[2] != node_id
            }
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
            candidates: Iterable[int]
            properties = properties or {}
            indexed = None
            for key, value in properties.items():
                table = self._prop_index.get((label, key))
                if table is not None:
                    self.stats.index_lookups += 1
                    indexed = table.get(value, set())
                    break
            if indexed is not None:
                candidates = indexed
            else:
                self.stats.scans += 1
                candidates = self._by_label.get(label, set())
            out = []
            for node_id in sorted(candidates):
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

    def create_property_index(self, label: str, prop: str) -> None:
        with self._lock:
            table: Dict[Any, Set[int]] = {}
            for node_id in self._by_label.get(label, set()):
                value = self._nodes[node_id].get(prop)
                table.setdefault(value, set()).add(node_id)
            self._prop_index[(label, prop)] = table

    # -- edges -----------------------------------------------------------

    def create_edge(
        self,
        src: int,
        edge_type: str,
        dst: int,
        properties: Optional[Props] = None,
        directed: bool = True,
    ) -> None:
        with self._lock:
            self._charge_write()
            self._require_node(src)
            self._require_node(dst)
            self._out.setdefault(src, {}).setdefault(edge_type, set()).add(dst)
            self._in.setdefault(dst, {}).setdefault(edge_type, set()).add(src)
            if properties:
                self._edge_props[(src, edge_type, dst)] = dict(properties)
            if not directed:
                self._out.setdefault(dst, {}).setdefault(edge_type, set()).add(src)
                self._in.setdefault(src, {}).setdefault(edge_type, set()).add(dst)
                if properties:
                    self._edge_props[(dst, edge_type, src)] = dict(properties)

    def delete_edge(
        self, src: int, edge_type: str, dst: int, directed: bool = True
    ) -> None:
        with self._lock:
            self._charge_write()
            self.stats.deletes += 1
            self._out.get(src, {}).get(edge_type, set()).discard(dst)
            self._in.get(dst, {}).get(edge_type, set()).discard(src)
            self._edge_props.pop((src, edge_type, dst), None)
            if not directed:
                self._out.get(dst, {}).get(edge_type, set()).discard(src)
                self._in.get(src, {}).get(edge_type, set()).discard(dst)
                self._edge_props.pop((dst, edge_type, src), None)

    def has_edge(self, src: int, edge_type: str, dst: int) -> bool:
        return dst in self._out.get(src, {}).get(edge_type, set())

    def neighbours(self, node_id: int, edge_type: str) -> Set[int]:
        with self._lock:
            self._charge_read()
            return set(self._out.get(node_id, {}).get(edge_type, set()))

    def count_edges(self, edge_type: Optional[str] = None) -> int:
        total = 0
        for adj in self._out.values():
            for etype, targets in adj.items():
                if edge_type is None or etype == edge_type:
                    total += len(targets)
        return total

    def edge_properties(self, src: int, edge_type: str, dst: int) -> Props:
        return dict(self._edge_props.get((src, edge_type, dst), {}))

    # -- traversal ---------------------------------------------------------

    def traverse(
        self, start: int, edge_type: str, max_depth: int
    ) -> Dict[int, int]:
        """BFS: reachable node ids -> depth (start excluded)."""
        with self._lock:
            self._charge_read()
            self._require_node(start)
            depths: Dict[int, int] = {start: 0}
            frontier = deque([start])
            while frontier:
                current = frontier.popleft()
                depth = depths[current]
                if depth >= max_depth:
                    continue
                for neighbour in self._out.get(current, {}).get(edge_type, set()):
                    if neighbour not in depths:
                        depths[neighbour] = depth + 1
                        frontier.append(neighbour)
            depths.pop(start)
            return depths

    def shortest_path(self, src: int, dst: int, edge_type: str) -> Optional[List[int]]:
        """Unweighted shortest path as a node-id list, or None."""
        with self._lock:
            self._charge_read()
            self._require_node(src)
            self._require_node(dst)
            if src == dst:
                return [src]
            parents: Dict[int, int] = {src: src}
            frontier = deque([src])
            while frontier:
                current = frontier.popleft()
                for neighbour in self._out.get(current, {}).get(edge_type, set()):
                    if neighbour in parents:
                        continue
                    parents[neighbour] = current
                    if neighbour == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    frontier.append(neighbour)
            return None

    def recommend(
        self,
        node_id: int,
        relation: str,
        liked: str,
        depth: int = 2,
    ) -> List[Tuple[int, int]]:
        """'Things my network likes that I don't': walk ``relation`` to
        ``depth``, collect ``liked`` targets, rank by endorsement count.
        This is the friends-of-friends query of Example 2."""
        with self._lock:
            self._charge_read()
            network = self.traverse(node_id, relation, depth)
            own = self._out.get(node_id, {}).get(liked, set())
            counts: Dict[int, int] = {}
            for other in network:
                for target in self._out.get(other, {}).get(liked, set()):
                    if target not in own:
                        counts[target] = counts.get(target, 0) + 1
            return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def degree(self, node_id: int, edge_type: str, direction: str = "out") -> int:
        """Number of incident edges of a type."""
        with self._lock:
            self._charge_read()
            table = self._out if direction == "out" else self._in
            return len(table.get(node_id, {}).get(edge_type, set()))

    def common_neighbours(self, a: int, b: int, edge_type: str) -> Set[int]:
        """Mutual neighbours — the classic link-prediction feature."""
        with self._lock:
            self._charge_read()
            na = self._out.get(a, {}).get(edge_type, set())
            nb = self._out.get(b, {}).get(edge_type, set())
            return set(na) & set(nb)

    # -- internals -----------------------------------------------------------

    def _require_node(self, node_id: int) -> Props:
        node = self._nodes.get(node_id)
        if node is None:
            raise DatabaseError(f"no node {node_id}")
        return node

    def _index_node(self, label: str, node_id: int, props: Props) -> None:
        for (ilabel, prop), table in self._prop_index.items():
            if ilabel == label:
                table.setdefault(props.get(prop), set()).add(node_id)

    def _unindex_node(self, label: str, node_id: int, props: Props) -> None:
        for (ilabel, prop), table in self._prop_index.items():
            if ilabel == label:
                bucket = table.get(props.get(prop))
                if bucket is not None:
                    bucket.discard(node_id)


class Neo4jLike(GraphDatabase):
    """Neo4j stand-in."""

    engine_family = "neo4j"
