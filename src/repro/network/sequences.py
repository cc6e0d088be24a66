"""Sequence decomposition of a road network (the GMA sequence table *ST*).

A *sequence* (Section 5 of the paper) is a maximal path between two nodes
whose degree differs from 2, with every intermediate node of degree exactly
2.  Sequence endpoints are therefore intersection nodes (degree > 2) or
terminal nodes (degree 1).  Every edge belongs to exactly one sequence, so
the decomposition partitions the edge set.

Real road maps contain many degree-2 shape points, so sequences are long and
GMA's shared execution pays off — the experiment generators purposely
subdivide edges to recreate this property.

The decomposition is a function of the topology, which is frozen once a
table is built, so the table is derived state: it is built once from the
network's column store and never stored.  A pickled table is a reference to
its network, and loading it rebuilds it.

Special cases handled here:

* **Cycles of degree-2 nodes** (a roundabout disconnected from intersections)
  have no valid endpoint.  Once every sequence with an endpoint is walked,
  the edges left over are taken in edge order, and the cycle of each is
  broken at the smaller node id of that edge's two endpoints, so that the
  decomposition remains a partition of the edges.
* **Both endpoints equal** (a loop attached to one intersection) is allowed;
  the sequence simply starts and ends at the same node.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.exceptions import EdgeNotFoundError, RecoveryError
from repro.network.graph import RoadNetwork


@dataclass(frozen=True)
class SequenceInfo:
    """One sequence of the decomposition (a value built on demand).

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
    """The decomposition of a road network into sequences, as columns.

    Provides the lookups GMA needs:

    * the sequence containing a given edge (O(1)),
    * the endpoints of a sequence (O(1), no object built),
    * the sequences ending at a node (from the node's incident edges),
    * the edges and nodes of a sequence, as a :class:`SequenceInfo` built
      on demand.

    Building the table freezes the network.  It keeps six ``array('i')``
    columns over the network's dense positions: the sequence of every edge
    position; every sequence's start and end node index and its offset
    into the concatenated edge positions of all sequences; those edge
    positions; and the node indices of all sequences, where those of
    sequence *s* start at its edge offset plus *s* (a sequence has one
    node more than it has edges).  Pickled, it is a reference to its network.

    Example::

        sequences = SequenceTable(network)
        start, end = sequences.endpoints(sequences.sequence_id_of_edge(10))
        info = sequences.sequence_of_edge(10)
        assert info.endpoints() == (start, end)
    """

    def __init__(self, network: RoadNetwork) -> None:
        store = network.freeze()
        self._network = network
        self._store = store
        edge_count = len(store.edge_ids)
        #: sequence id per dense edge position
        self._edge_sequence = array("i", [-1]) * edge_count
        #: start / end dense node index per sequence
        self._start = array("i")
        self._end = array("i")
        #: per sequence, where its edges start in ``_edges``; one extra entry
        self._offset = array("i", [0])
        #: dense edge positions of every sequence, concatenated
        self._edges = array("i")
        #: dense node indices of every sequence, concatenated
        self._nodes = array("i")
        self._build()

    def __reduce__(self):
        """Pickle as a reference to the network: loading rebuilds the table."""
        return (SequenceTable, (self._network,))

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Load a table an earlier release pickled whole, by rebuilding it.

        That release pickled its ``_sequences`` / ``_edge_to_sequence``
        dicts (in ``RPCKPT05`` checkpoints and shard blobs).  Checkpointed
        GMA state names sequences by id, so the pickled map must be the
        rebuilt one.

        Raises:
            RecoveryError: if the pickled map disagrees with the rebuild.
        """
        self.__init__(state["_network"])
        sequences = state["_sequences"]
        edge_to_sequence = state["_edge_to_sequence"]
        edge_ids = self._store.edge_ids
        if (
            len(sequences) != len(self)
            or any(sequences.get(s) != self.sequence(s) for s in range(len(self)))
            or edge_to_sequence != dict(zip(edge_ids, self._edge_sequence))
        ):
            raise RecoveryError(
                "the pickled sequence table disagrees with the one its network builds"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Walk every sequence, numbering them in walk order.

        First from every endpoint node (degree other than 2) in node order,
        through each of its incident edges in CSR order, then the pure
        cycles in edge order.
        """
        store = self._store
        inc_indptr, inc_edge = store.inc_indptr, store.inc_edge
        for node in range(len(store.node_ids)):
            lo, hi = inc_indptr[node], inc_indptr[node + 1]
            if hi - lo == 2:
                continue
            for slot in range(lo, hi):
                position = inc_edge[slot]
                if self._edge_sequence[position] < 0:
                    self._walk(node, position, cycle=False)
        node_ids, starts, ends = store.node_ids, store.edge_start, store.edge_end
        for position in range(len(store.edge_ids)):
            if self._edge_sequence[position] < 0:
                start, end = starts[position], ends[position]
                anchor = start if node_ids[start] < node_ids[end] else end
                self._walk(anchor, position, cycle=True)

    def _walk(self, start_node: int, first_edge: int, cycle: bool) -> None:
        """Append the sequence leaving dense node *start_node* by *first_edge*."""
        store = self._store
        inc_indptr, inc_edge = store.inc_indptr, store.inc_edge
        starts, ends = store.edge_start, store.edge_end
        edge_sequence, edges, nodes = self._edge_sequence, self._edges, self._nodes
        sequence_id = len(self._start)
        nodes.append(start_node)
        node, edge = start_node, first_edge
        while True:
            edge_sequence[edge] = sequence_id
            edges.append(edge)
            start = starts[edge]
            node = ends[edge] if node == start else start
            nodes.append(node)
            if cycle and node == start_node:
                break
            lo = inc_indptr[node]
            if inc_indptr[node + 1] - lo != 2:
                break
            # Degree-2 interior node: continue through its other edge.
            following = inc_edge[lo]
            if following == edge:
                following = inc_edge[lo + 1]
            if edge_sequence[following] >= 0:
                break
            edge = following
        self._start.append(start_node)
        self._end.append(node)
        self._offset.append(len(edges))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._start)

    def __iter__(self) -> Iterator[SequenceInfo]:
        return map(self.sequence, range(len(self)))

    def sequence(self, sequence_id: int) -> SequenceInfo:
        """Return the sequence with the given id (KeyError if unknown)."""
        if not 0 <= sequence_id < len(self._start):
            raise KeyError(sequence_id)
        store = self._store
        lo, hi = self._offset[sequence_id], self._offset[sequence_id + 1]
        node_ids = store.node_ids
        return SequenceInfo(
            sequence_id=sequence_id,
            start_node=node_ids[self._start[sequence_id]],
            end_node=node_ids[self._end[sequence_id]],
            edge_ids=tuple(map(store.edge_ids.__getitem__, self._edges[lo:hi])),
            node_ids=tuple(
                map(node_ids.__getitem__, self._nodes[lo + sequence_id : hi + sequence_id + 1])
            ),
        )

    def endpoints(self, sequence_id: int) -> Tuple[int, int]:
        """The ``(start, end)`` node ids of a valid sequence id, with no view built."""
        node_ids = self._store.node_ids
        return node_ids[self._start[sequence_id]], node_ids[self._end[sequence_id]]

    def sequence_of_edge(self, edge_id: int) -> SequenceInfo:
        """Return the sequence containing *edge_id*.

        Raises:
            EdgeNotFoundError: if the edge belongs to no sequence (unknown).
        """
        return self.sequence(self.sequence_id_of_edge(edge_id))

    def sequence_id_of_edge(self, edge_id: int) -> int:
        """Return the id of the sequence containing *edge_id*.

        Raises:
            EdgeNotFoundError: if the edge is unknown.
        """
        position = self._store.edge_index.get(edge_id)
        if position is None:
            raise EdgeNotFoundError(edge_id)
        return self._edge_sequence[position]

    def sequences_at_node(self, node_id: int) -> List[SequenceInfo]:
        """All sequences having *node_id* as an endpoint (``n.S`` in the paper), by id.

        Empty for a node the network does not hold.
        """
        store = self._store
        node = store.node_index.get(node_id)
        if node is None:
            return []
        found = {
            self._edge_sequence[position]
            for position in store.inc_edge[store.inc_indptr[node] : store.inc_indptr[node + 1]]
        }
        return [
            self.sequence(sequence_id)
            for sequence_id in sorted(found)
            if node in (self._start[sequence_id], self._end[sequence_id])
        ]

    # ------------------------------------------------------------------
    # distances along a sequence
    # ------------------------------------------------------------------
    def total_weight(self, sequence_id: int) -> float:
        """Sum of the current weights of a sequence's edges."""
        if not 0 <= sequence_id < len(self._start):
            raise KeyError(sequence_id)
        edges = self._edges[self._offset[sequence_id] : self._offset[sequence_id + 1]]
        return sum(map(self._store.edge_weight.__getitem__, edges))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def is_partition(self) -> bool:
        """True if every network edge belongs to exactly one sequence."""
        return sorted(self._edges) == list(range(len(self._store.edge_ids)))

    def statistics(self) -> Dict[str, float]:
        """Summary statistics (sequence count, average length, ...)."""
        offset = self._offset
        lengths = [offset[s + 1] - offset[s] for s in range(len(self))]
        if not lengths:
            return {"sequences": 0.0, "avg_edges": 0.0, "max_edges": 0.0}
        return {
            "sequences": float(len(lengths)),
            "avg_edges": sum(lengths) / len(lengths),
            "max_edges": float(max(lengths)),
        }
