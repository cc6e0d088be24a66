"""Sequence decomposition of a road network (the GMA sequence table *ST*).

A *sequence* (Section 5 of the paper) is a maximal path between two nodes
whose degree differs from 2, with every intermediate node of degree exactly
2.  Sequence endpoints are therefore intersection nodes (degree > 2) or
terminal nodes (degree 1).  Every edge belongs to exactly one sequence, so
the decomposition partitions the edge set.

Real road maps contain many degree-2 shape points, so sequences are long and
GMA's shared execution pays off — the experiment generators purposely
subdivide edges to recreate this property.

Special cases handled here:

* **Cycles of degree-2 nodes** (a roundabout disconnected from intersections)
  have no valid endpoint; we break the cycle at its smallest node id so that
  the decomposition remains a partition of the edges.
* **Both endpoints equal** (a loop attached to one intersection) is allowed;
  the sequence simply starts and ends at the same node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence as Seq, Set, Tuple

from repro.exceptions import EdgeNotFoundError
from repro.network.graph import RoadNetwork


@dataclass(frozen=True)
class SequenceInfo:
    """One sequence of the decomposition.

    Attributes:
        sequence_id: identifier unique within the :class:`SequenceTable`.
        start_node: first endpoint (intersection/terminal node id).
        end_node: second endpoint.
        edge_ids: ordered edge ids from ``start_node`` towards ``end_node``.
        node_ids: ordered node ids visited, including both endpoints; has
            ``len(edge_ids) + 1`` entries.
    """

    sequence_id: int
    start_node: int
    end_node: int
    edge_ids: Tuple[int, ...]
    node_ids: Tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edge_ids)

    def endpoints(self) -> Tuple[int, int]:
        """Return ``(start_node, end_node)``."""
        return (self.start_node, self.end_node)

    def interior_nodes(self) -> Tuple[int, ...]:
        """Node ids strictly between the endpoints (all of degree 2)."""
        return self.node_ids[1:-1]


class SequenceTable:
    """The decomposition of a road network into sequences.

    Provides the lookups GMA needs:

    * the sequence containing a given edge (O(1)),
    * the endpoints of that sequence,
    * distances along the sequence from a location inside it to each
      endpoint (used to seed per-query evaluation with active-node results),
    * the set of objects/edges of a sequence.

    Example::

        sequences = SequenceTable(network)
        info = sequences.sequence_of_edge(10)
    """

    def __init__(self, network: RoadNetwork) -> None:
        self._network = network
        self._sequences: Dict[int, SequenceInfo] = {}
        self._edge_to_sequence: Dict[int, int] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        network = self._network
        visited_edges: Set[int] = set()
        next_id = 0

        endpoint_nodes = [
            node_id for node_id in network.node_ids() if network.degree(node_id) != 2
        ]

        # Pass 1: walk sequences starting from every endpoint node.
        for node_id in endpoint_nodes:
            for edge_id in network.incident_edges(node_id):
                if edge_id in visited_edges:
                    continue
                info = self._walk_sequence(next_id, node_id, edge_id, visited_edges)
                self._register(info)
                next_id += 1

        # Pass 2: pure cycles of degree-2 nodes (no endpoint on them).
        for edge_id in network.edge_ids():
            if edge_id in visited_edges:
                continue
            anchor = min(network.endpoints_of(edge_id))
            info = self._walk_sequence(next_id, anchor, edge_id, visited_edges, cycle=True)
            self._register(info)
            next_id += 1

    def _walk_sequence(
        self,
        sequence_id: int,
        start_node: int,
        first_edge: int,
        visited_edges: Set[int],
        cycle: bool = False,
    ) -> SequenceInfo:
        network = self._network
        edge_ids: List[int] = []
        node_ids: List[int] = [start_node]
        current_node = start_node
        current_edge = first_edge

        while True:
            visited_edges.add(current_edge)
            edge_ids.append(current_edge)
            start, end = network.endpoints_of(current_edge)
            current_node = end if current_node == start else start
            node_ids.append(current_node)
            if cycle and current_node == start_node:
                break
            if network.degree(current_node) != 2:
                break
            # Degree-2 interior node: continue through its other edge.
            incident = network.incident_edges(current_node)
            next_edges = [eid for eid in incident if eid != current_edge]
            if not next_edges:
                break
            next_edge = next_edges[0]
            if next_edge in visited_edges:
                break
            current_edge = next_edge

        return SequenceInfo(
            sequence_id=sequence_id,
            start_node=start_node,
            end_node=current_node,
            edge_ids=tuple(edge_ids),
            node_ids=tuple(node_ids),
        )

    def _register(self, info: SequenceInfo) -> None:
        self._sequences[info.sequence_id] = info
        for edge_id in info.edge_ids:
            self._edge_to_sequence[edge_id] = info.sequence_id

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sequences)

    def __iter__(self) -> Iterator[SequenceInfo]:
        return iter(self._sequences.values())

    def sequence(self, sequence_id: int) -> SequenceInfo:
        """Return the sequence with the given id (KeyError if unknown)."""
        return self._sequences[sequence_id]

    def sequence_of_edge(self, edge_id: int) -> SequenceInfo:
        """Return the sequence containing *edge_id*.

        Raises:
            EdgeNotFoundError: if the edge belongs to no sequence (unknown).
        """
        sequence_id = self._edge_to_sequence.get(edge_id)
        if sequence_id is None:
            raise EdgeNotFoundError(edge_id)
        return self._sequences[sequence_id]

    def sequence_id_of_edge(self, edge_id: int) -> int:
        """Return the id of the sequence containing *edge_id*."""
        return self.sequence_of_edge(edge_id).sequence_id

    def sequences_at_node(self, node_id: int) -> List[SequenceInfo]:
        """All sequences having *node_id* as an endpoint (``n.S`` in the paper)."""
        return [
            info
            for info in self._sequences.values()
            if node_id in (info.start_node, info.end_node)
        ]

    # ------------------------------------------------------------------
    # distances along a sequence
    # ------------------------------------------------------------------
    def total_weight(self, sequence_id: int) -> float:
        """Sum of the current weights of a sequence's edges."""
        info = self.sequence(sequence_id)
        return sum(map(self._network.weight_of, info.edge_ids))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def is_partition(self) -> bool:
        """True if every network edge belongs to exactly one sequence."""
        covered = [eid for info in self._sequences.values() for eid in info.edge_ids]
        if len(covered) != self._network.edge_count:
            return False
        return len(set(covered)) == self._network.edge_count

    def statistics(self) -> Dict[str, float]:
        """Summary statistics (sequence count, average length, ...)."""
        lengths = [info.edge_count for info in self._sequences.values()]
        if not lengths:
            return {"sequences": 0.0, "avg_edges": 0.0, "max_edges": 0.0}
        return {
            "sequences": float(len(lengths)),
            "avg_edges": sum(lengths) / len(lengths),
            "max_edges": float(max(lengths)),
        }
