"""Road-network graph model: nodes, weighted edges, adjacency.

The network is an undirected graph (Section 3 of the paper: edges are
bidirectional; one-way roads can be modelled by setting ``oneway=True`` on an
edge, in which case it is only traversable from ``start`` to ``end``).  Every
node carries workspace coordinates, every edge a positive *weight* — the
travel cost used for network distances — which may fluctuate over time due
to traffic.  Edge weights are therefore mutable through
:meth:`RoadNetwork.set_edge_weight`; the topology is frozen
(:meth:`RoadNetwork.freeze`) once a server or index holds the network, and
a road closure is a weight (:data:`CLOSED_EDGE_WEIGHT`).

Positions *on* the network (for data objects and queries) are expressed as a
:class:`NetworkLocation`: an edge id plus a fraction in ``[0, 1]`` measured
from the edge's start node.  Fractions — rather than absolute offsets — are
used so that a weight fluctuation does not invalidate stored positions: the
geometric position stays put while the travel cost of reaching it scales
with the weight.
"""

from __future__ import annotations

import math
import pickle
from array import array
from collections import Counter
from dataclasses import field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    InvalidLocationError,
    InvalidWeightError,
    NetworkError,
    NodeNotFoundError,
    TopologyFrozenError,
)
from repro.network.csr import CSRGraph
from repro.spatial.geometry import Point, Rect, Segment
from repro.utils import value_class
from repro.utils.validation import require_positive

#: The finite sentinel weight for a *closed* road.  True ``float("inf")``
#: weights are rejected everywhere (:class:`InvalidWeightError`): an infinite
#: weight would poison distance arithmetic (``inf - inf`` → NaN in the
#: incremental monitors).
#: Closures instead pin the weight to this huge, exactly-representable
#: power of two — traversal stays defined (an object on a closed edge keeps a
#: finite, astronomically large distance and drops out of any realistic k-NN
#: result) and every monitor agrees with the oracle.  See ``docs/queries.md``.
CLOSED_EDGE_WEIGHT = 2.0**40


@value_class(frozen=True)
class Node:
    """A network node (road intersection or shape point)."""

    node_id: int
    point: Point

    @property
    def x(self) -> float:
        """The node's workspace x coordinate."""
        return self.point.x

    @property
    def y(self) -> float:
        """The node's workspace y coordinate."""
        return self.point.y


@value_class(frozen=True)
class Edge:
    """A road segment between two nodes (a read-only value).

    :meth:`RoadNetwork.edge` builds one from the network's columns on each
    call; a weight changes through :meth:`RoadNetwork.set_edge_weight`.

    Attributes:
        edge_id: unique identifier.
        start: id of the start node.
        end: id of the end node.
        weight: current travel cost (positive).
        base_weight: the initial weight (the segment's length in the paper's
            default setting); traffic models fluctuate ``weight`` around it.
        oneway: when True the edge is traversable only from start to end.
    """

    edge_id: int
    start: int
    end: int
    weight: float
    base_weight: float = field(default=0.0)
    oneway: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.start == self.end:
            raise InvalidLocationError(
                f"edge {self.edge_id} is a self loop at node {self.start}"
            )
        if not _is_valid_weight(self.weight):
            raise InvalidWeightError(self.weight)
        if self.base_weight <= 0.0:
            object.__setattr__(self, "base_weight", self.weight)

    def other_endpoint(self, node_id: int) -> int:
        """Return the endpoint that is not *node_id*.

        Raises:
            InvalidLocationError: if *node_id* is not an endpoint of the edge.
        """
        if node_id == self.start:
            return self.end
        if node_id == self.end:
            return self.start
        raise InvalidLocationError(
            f"node {node_id} is not an endpoint of edge {self.edge_id}"
        )

    def endpoints(self) -> Tuple[int, int]:
        """Return ``(start, end)``."""
        return (self.start, self.end)


@value_class(frozen=True)
class NetworkLocation:
    """A position on the network: an edge id and a fraction along it.

    ``fraction`` is measured from the edge's *start* node, so the travel cost
    from the start node to the location is ``fraction * edge.weight`` and the
    cost from the end node is ``(1 - fraction) * edge.weight``.

    Example::

        location = NetworkLocation(edge_id=10, fraction=0.25)
        cost_from_start = location.offset(network.edge(10).weight)
    """

    edge_id: int
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise InvalidLocationError(
                f"fraction must be in [0, 1], got {self.fraction!r}"
            )

    def offset(self, weight: float) -> float:
        """Travel cost from the edge's start node under the given weight."""
        return self.fraction * weight

    def reversed_offset(self, weight: float) -> float:
        """Travel cost from the edge's end node under the given weight."""
        return (1.0 - self.fraction) * weight


class RoadNetwork:
    """An in-memory road network with mutable edge weights.

    The class offers O(1) lookups by node/edge id, adjacency iteration, and
    weight updates.  It deliberately knows nothing about data objects,
    queries, or influence lists — those live in the edge table and the
    monitoring algorithms — so that the same network instance can back
    several monitors (OVH / IMA / GMA) running in lock-step.

    Nodes and edges live in one column store
    (:class:`~repro.network.csr.CSRGraph`).  An editable network also
    keeps a list of incident edge ids per node;
    :meth:`freeze` turns those into the store's CSR adjacency and drops
    them.  :meth:`node` / :meth:`edge` / :meth:`nodes` / :meth:`edges`
    return read-only :class:`Node` / :class:`Edge` values built on demand
    from the columns; a weight changes only through
    :meth:`set_edge_weight`, :meth:`restore_weights` and
    :meth:`reset_weights`.

    Example::

        network = RoadNetwork()
        network.add_node(1, x=0.0, y=0.0)
        network.add_node(2, x=3.0, y=4.0)
        network.add_edge(10, 1, 2)             # weight defaults to length 5.0
        network.freeze()                       # what a server does
        network.set_edge_weight(10, 7.5)       # congestion
    """

    def __init__(self) -> None:
        self._attach(CSRGraph(), 0, 0)

    @classmethod
    def from_columns(
        cls,
        node_ids: Sequence[int],
        xs: Sequence[float],
        ys: Sequence[float],
        edge_ids: Sequence[int],
        starts: Sequence[int],
        ends: Sequence[int],
        base_weights: Sequence[float],
        oneway: Sequence[int],
    ) -> "RoadNetwork":
        """A frozen network straight from its columns, with no per-row object.

        Rows are in :meth:`add_node` / :meth:`add_edge` order, edges name
        their endpoints by node id and start at their base weight.  What
        those calls refuse is refused here, with the same errors, and
        :attr:`topology_version` is what they would have left.

        Example::

            network = RoadNetwork.from_columns(
                [1, 2], [0.0, 3.0], [0.0, 4.0], [10], [1], [2], [5.0], [0]
            )
            assert network.edge(10).weight == 5.0
        """
        store = CSRGraph()
        store.node_ids, store.edge_ids = list(node_ids), list(edge_ids)
        store.node_index, store.edge_index = _index(store.node_ids), _index(store.edge_ids)
        if len(store.node_index) != len(store.node_ids):
            raise DuplicateNodeError(_first_repeat(store.node_ids))
        if len(store.edge_index) != len(store.edge_ids):
            raise DuplicateEdgeError(_first_repeat(store.edge_ids))
        try:
            store.edge_start = list(map(store.node_index.__getitem__, starts))
            store.edge_end = list(map(store.node_index.__getitem__, ends))
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None
        store.node_x, store.node_y = array("d", xs), array("d", ys)
        store.edge_base_weight = array("d", base_weights)
        position = _first_invalid_weight(store.edge_base_weight)
        if position is not None:
            raise InvalidWeightError(base_weights[position], store.edge_ids[position])
        for position, (start, end) in enumerate(zip(store.edge_start, store.edge_end)):
            if start == end:
                raise InvalidLocationError(
                    f"edge {store.edge_ids[position]} is a self loop at node {starts[position]}"
                )
        store.edge_weight = store.edge_base_weight.tolist()
        store.edge_oneway = bytearray(1 if flag else 0 for flag in oneway)
        network = cls.__new__(cls)
        network._attach(store, len(store.node_ids) + len(store.edge_ids), 0, frozen=True)
        return network

    def _attach(
        self, store: CSRGraph, topology_version: int, weight_version: int, frozen: bool = False
    ) -> None:
        """Take *store* over: frozen, or editable with one incident-edge list per node."""
        self._store = store
        self._topology_version = topology_version
        self._weight_version = weight_version
        #: Incident edge ids per dense node index; None once frozen.
        self._incidence: Optional[List[List[int]]] = None
        if frozen:
            store.freeze()
            return
        self._incidence = [[] for _ in store.node_ids]
        for edge_id, start, end in zip(store.edge_ids, store.edge_start, store.edge_end):
            self._incidence[start].append(edge_id)
            self._incidence[end].append(edge_id)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"RoadNetwork(nodes={self.node_count}, edges={self.edge_count})"

    def __getstate__(self) -> Tuple[object, ...]:
        """Pickle the columns; like :meth:`copy`, a replica starts editable."""
        store = self._store
        return (
            store.node_ids, store.node_x, store.node_y, store.edge_ids,
            store.edge_start, store.edge_end, store.edge_base_weight,
            array("d", store.edge_weight), bytes(store.edge_oneway),
            self._topology_version, self._weight_version,
        )

    def __setstate__(self, state) -> None:
        """Unpickle the columns, or the node/edge dicts of older releases."""
        if isinstance(state, dict):
            state = _columns_of_attribute_dicts(state)
        store = CSRGraph()
        (
            store.node_ids, store.node_x, store.node_y, store.edge_ids,
            store.edge_start, store.edge_end, store.edge_base_weight, weights,
            oneway, topology_version, weight_version,
        ) = state
        store.node_index, store.edge_index = _index(store.node_ids), _index(store.edge_ids)
        store.edge_weight = weights.tolist()
        store.edge_oneway = bytearray(oneway)
        self._attach(store, topology_version, weight_version)

    @property
    def node_count(self) -> int:
        """Number of nodes in the network."""
        return len(self._store.node_ids)

    @property
    def edge_count(self) -> int:
        """Number of edges in the network."""
        return len(self._store.edge_ids)

    @property
    def weight_version(self) -> int:
        """Monotonic counter bumped on every weight change (cache invalidation)."""
        return self._weight_version

    @property
    def topology_version(self) -> int:
        """Monotonic counter bumped whenever nodes or edges are added/removed.

        It stops moving once the network is frozen.  A network record and
        a snapshot's dynamic section carry it, and a dynamic section is
        refused over a static one of another version.
        """
        return self._topology_version

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has fixed the topology."""
        return self._store.frozen

    @property
    def columns(self) -> CSRGraph:
        """The network's column store, read-only to callers.

        Its node and edge columns are always current; its adjacency columns
        exist once the network is frozen (:func:`~repro.network.csr.csr_snapshot`
        freezes and returns it).
        """
        return self._store

    def freeze(self) -> CSRGraph:
        """Fix the topology for good and return the column store (idempotent).

        The CSR snapshot, every edge table and every server call it, so the
        nodes and edges they index stay the network's: ``add_node`` /
        ``add_edge`` / ``remove_edge`` then raise :class:`TopologyFrozenError`.
        Weights stay mutable.  The per-node incidence lists give way to the
        store's CSR adjacency.
        """
        store = self._store
        if not store.frozen:
            self._incidence = None
            store.freeze()
        return store

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, x: float, y: float) -> Node:
        """Add a node at coordinates ``(x, y)``.

        Raises:
            TopologyFrozenError: if the network is frozen.
            DuplicateNodeError: if the id already exists.
        """
        if self._store.frozen:
            raise TopologyFrozenError(f"add node {node_id!r}")
        store = self._store
        if node_id in store.node_index:
            raise DuplicateNodeError(node_id)
        point = Point(float(x), float(y))
        store.node_index[node_id] = len(store.node_ids)
        store.node_ids.append(node_id)
        store.node_x.append(point.x)
        store.node_y.append(point.y)
        self._incidence.append([])
        self._topology_version += 1
        return Node(node_id, point)

    def add_edge(
        self,
        edge_id: int,
        start: int,
        end: int,
        weight: Optional[float] = None,
        oneway: bool = False,
    ) -> Edge:
        """Add an edge between two existing nodes.

        When *weight* is omitted the Euclidean distance between the endpoints
        is used (the paper's default: initial weights equal segment lengths).

        Raises:
            TopologyFrozenError: if the network is frozen.
            DuplicateEdgeError: if the edge id already exists.
            NodeNotFoundError: if either endpoint does not exist.
            InvalidWeightError: if the weight is not a positive finite number.
            InvalidLocationError: if the edge is a self loop.
        """
        if self._store.frozen:
            raise TopologyFrozenError(f"add edge {edge_id!r}")
        store = self._store
        if edge_id in store.edge_index:
            raise DuplicateEdgeError(edge_id)
        node_index = store.node_index
        if start not in node_index:
            raise NodeNotFoundError(start)
        if end not in node_index:
            raise NodeNotFoundError(end)
        start_index, end_index = node_index[start], node_index[end]
        if weight is None:
            weight = math.hypot(
                store.node_x[start_index] - store.node_x[end_index],
                store.node_y[start_index] - store.node_y[end_index],
            )
            if weight <= 0.0:
                # Coincident endpoints get a tiny positive weight so the edge
                # remains usable; generators avoid this situation anyway.
                weight = 1e-9
        if not _is_valid_weight(weight):
            raise InvalidWeightError(weight)
        edge = Edge(edge_id, start, end, float(weight), float(weight), oneway)
        store.edge_index[edge_id] = len(store.edge_ids)
        store.edge_ids.append(edge_id)
        store.edge_start.append(start_index)
        store.edge_end.append(end_index)
        store.edge_weight.append(edge.weight)
        store.edge_base_weight.append(edge.weight)
        store.edge_oneway.append(1 if oneway else 0)
        self._incidence[start_index].append(edge_id)
        self._incidence[end_index].append(edge_id)
        self._topology_version += 1
        return edge

    def remove_edge(self, edge_id: int) -> None:
        """Remove an edge from the network (O(edges): the columns close up).

        Raises:
            TopologyFrozenError: if the network is frozen.
            EdgeNotFoundError: if the edge does not exist.
        """
        if self._store.frozen:
            raise TopologyFrozenError(f"remove edge {edge_id!r}")
        store = self._store
        position = store.edge_index.pop(edge_id, None)
        if position is None:
            raise EdgeNotFoundError(edge_id)
        self._incidence[store.edge_start[position]].remove(edge_id)
        self._incidence[store.edge_end[position]].remove(edge_id)
        for column in (
            store.edge_ids, store.edge_start, store.edge_end, store.edge_weight,
            store.edge_base_weight, store.edge_oneway,
        ):
            del column[position]
        edge_index, edge_ids = store.edge_index, store.edge_ids
        for later in range(position, len(edge_ids)):
            edge_index[edge_ids[later]] = later
        self._weight_version += 1
        self._topology_version += 1

    def _reorder_edges(self, order: Sequence[int], removals: int, restores: int) -> None:
        """Keep the edges at dense positions *order*, in that order, in one pass.

        What *removals* :meth:`remove_edge` calls, *restores* of which are
        undone by :meth:`add_edge` with the edge's own values, leave when
        *order* lists the edges never removed first and the restored ones
        last, in restore order: the same columns, incident-edge order and
        version counters.  Editable networks only.
        """
        store = self._store
        for column in (store.edge_ids, store.edge_start, store.edge_end, store.edge_weight):
            column[:] = [column[position] for position in order]
        base, oneway = store.edge_base_weight, store.edge_oneway
        store.edge_base_weight = array("d", [base[position] for position in order])
        store.edge_oneway = bytearray(oneway[position] for position in order)
        store.edge_index = _index(store.edge_ids)
        self._attach(
            store, self._topology_version + removals + restores, self._weight_version + removals
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _node_at(self, position: int) -> Node:
        store = self._store
        return Node(
            store.node_ids[position], Point(store.node_x[position], store.node_y[position])
        )

    def _edge_at(self, position: int) -> Edge:
        store = self._store
        node_ids = store.node_ids
        return Edge(
            store.edge_ids[position],
            node_ids[store.edge_start[position]],
            node_ids[store.edge_end[position]],
            store.edge_weight[position],
            store.edge_base_weight[position],
            store.edge_oneway[position] == 1,
        )

    def node(self, node_id: int) -> Node:
        """Return the node with the given id (a read-only value).

        Raises:
            NodeNotFoundError: if it does not exist.
        """
        return self._node_at(self._store.index_of_node(node_id))

    def edge(self, edge_id: int) -> Edge:
        """Return the edge with the given id (a read-only value).

        The value holds the weight at the time of the call; a later
        :meth:`set_edge_weight` does not change it.

        Raises:
            EdgeNotFoundError: if it does not exist.
        """
        return self._edge_at(self._store.index_of_edge(edge_id))

    def weight_of(self, edge_id: int) -> float:
        """An edge's current weight, from the weight column (no view built)."""
        return self._store.edge_weight[self._store.index_of_edge(edge_id)]

    def endpoints_of(self, edge_id: int) -> Tuple[int, int]:
        """An edge's ``(start, end)`` node ids, from the columns (no view built)."""
        store = self._store
        position = store.index_of_edge(edge_id)
        return store.node_ids[store.edge_start[position]], store.node_ids[store.edge_end[position]]

    def has_node(self, node_id: int) -> bool:
        """True when a node with this id exists."""
        return node_id in self._store.node_index

    def has_edge(self, edge_id: int) -> bool:
        """True when an edge with this id exists."""
        return edge_id in self._store.edge_index

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes (read-only values)."""
        return map(self._node_at, range(self.node_count))

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (read-only values)."""
        return map(self._edge_at, range(self.edge_count))

    def node_ids(self) -> Iterator[int]:
        """Iterate over all node ids."""
        return iter(self._store.node_ids)

    def edge_ids(self) -> Iterator[int]:
        """Iterate over all edge ids."""
        return iter(self._store.edge_ids)

    def edge_between(self, u: int, v: int) -> Optional[int]:
        """Return the id of an edge connecting *u* and *v*, if any.

        Among parallel edges: the latest added running *u* -> *v*, else the
        earliest running *v* -> *u* (a scan of *u*'s few adjacent edges).
        """
        store = self._store
        u_index = store.node_index.get(u)
        v_index = store.node_index.get(v)
        if u_index is None or v_index is None:
            return None
        starts, ends = store.edge_start, store.edge_end
        forward = backward = None
        for position in self._incident_positions(u_index):
            if starts[position] == u_index and ends[position] == v_index:
                forward = position
            elif backward is None and starts[position] == v_index and ends[position] == u_index:
                backward = position
        found = backward if forward is None else forward
        return None if found is None else store.edge_ids[found]

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def _incident_positions(self, node_index: int) -> Sequence[int]:
        """Dense positions of the edges incident to a dense node index."""
        store = self._store
        if store.frozen:
            return store.inc_edge[store.inc_indptr[node_index] : store.inc_indptr[node_index + 1]]
        edge_index = store.edge_index
        return [edge_index[edge_id] for edge_id in self._incidence[node_index]]

    def incident_edges(self, node_id: int) -> Sequence[int]:
        """Return the ids of the edges incident to *node_id*.

        Raises:
            NodeNotFoundError: if the node does not exist.
        """
        edge_ids = self._store.edge_ids
        return tuple(
            edge_ids[position]
            for position in self._incident_positions(self._store.index_of_node(node_id))
        )

    def degree(self, node_id: int) -> int:
        """Number of incident edges (bidirectional edges count once)."""
        return len(self._incident_positions(self._store.index_of_node(node_id)))

    def neighbors(self, node_id: int) -> List[Tuple[int, int, float]]:
        """Return ``(edge_id, neighbor_node_id, weight)`` triples from *node_id*.

        One-way edges are only reported in their traversable direction.
        """
        store = self._store
        index = store.index_of_node(node_id)
        node_ids, starts, ends = store.node_ids, store.edge_start, store.edge_end
        result: List[Tuple[int, int, float]] = []
        for position in self._incident_positions(index):
            start = starts[position]
            if store.edge_oneway[position] and start != index:
                continue
            other = ends[position] if start == index else start
            result.append(
                (store.edge_ids[position], node_ids[other], store.edge_weight[position])
            )
        return result

    def intersection_nodes(self) -> List[int]:
        """Node ids with degree different from 2 (sequence endpoints)."""
        node_ids = self._store.node_ids
        return [
            node_ids[index]
            for index in range(len(node_ids))
            if len(self._incident_positions(index)) != 2
        ]

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def set_edge_weight(self, edge_id: int, weight: float) -> float:
        """Set the current weight of an edge and return the previous value.

        One write to the weight column, plus the edge's adjacency entries
        once the network is frozen.

        Raises:
            EdgeNotFoundError: if the edge does not exist.
            InvalidWeightError: if the weight is not positive and finite.
        """
        store = self._store
        try:
            position = store.edge_index[edge_id]
        except KeyError as exc:
            raise EdgeNotFoundError(edge_id) from exc
        if not _is_valid_weight(weight):
            raise InvalidWeightError(weight)
        previous = store.edge_weight[position]
        store.set_weight(position, float(weight))
        self._weight_version += 1
        return previous

    def scale_edge_weight(self, edge_id: int, factor: float) -> float:
        """Multiply the current weight of an edge by *factor*.

        Returns the previous weight.  Used by the traffic model (±10 %
        fluctuations in the paper's experiments).
        """
        require_positive(factor, "factor")
        return self.set_edge_weight(edge_id, self.weight_of(edge_id) * factor)

    def reset_weights(self) -> None:
        """Restore every edge's weight to its base (initial) value."""
        self._store.set_weights(self._store.edge_base_weight)
        self._weight_version += 1

    def weight_column(self) -> array:
        """Every edge's current weight as one flat ``float64`` column.

        In :meth:`edges` iteration order — the only part of the network a
        tick can change, which is why a checkpoint stores this column (8
        bytes per edge) instead of the graph.  :meth:`restore_weights` is
        the inverse.

        Example::

            column = network.weight_column()
            network.restore_weights(column, network.weight_version)
        """
        return array("d", self._store.edge_weight)

    def restore_weights(self, weights: Sequence[float], weight_version: int) -> None:
        """Overlay a :meth:`weight_column` and its version onto this network.

        The column must come from a network of the same topology (equal
        :attr:`topology_version`): weights are matched to edges by position.
        It is checked whole, in one pass, by the rule :meth:`add_edge`
        applies, before anything is written.

        Raises:
            NetworkError: if the column's length is not the edge count.
            InvalidWeightError: naming the first edge whose weight is not
                positive and finite (:data:`CLOSED_EDGE_WEIGHT` is).
        """
        store = self._store
        if len(weights) != len(store.edge_ids):
            raise NetworkError(
                f"weight column holds {len(weights)} values for {len(store.edge_ids)} edges"
            )
        position = _first_invalid_weight(weights)
        if position is not None:
            raise InvalidWeightError(weights[position], store.edge_ids[position])
        store.set_weights(weights)
        self._weight_version = weight_version

    def total_weight(self) -> float:
        """Sum of all current edge weights."""
        return sum(self._store.edge_weight)

    def average_edge_weight(self) -> float:
        """Mean current edge weight (0 for an empty network)."""
        if not self.edge_count:
            return 0.0
        return self.total_weight() / self.edge_count

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def edge_segment(self, edge_id: int) -> Segment:
        """Return the straight-line segment between an edge's endpoints."""
        store = self._store
        position = store.index_of_edge(edge_id)
        start, end = store.edge_start[position], store.edge_end[position]
        xs, ys = store.node_x, store.node_y
        return Segment(Point(xs[start], ys[start]), Point(xs[end], ys[end]))

    def bounding_box(self, margin: float = 0.0) -> Rect:
        """Bounding rectangle of all node coordinates.

        Raises:
            NodeNotFoundError: if the network has no nodes.
        """
        store = self._store
        if not store.node_ids:
            raise NodeNotFoundError(-1)
        xs, ys = store.node_x, store.node_y
        rect = Rect(min(xs), min(ys), max(xs), max(ys))
        if margin:
            rect = rect.expanded(margin)
        return rect

    def location_point(self, location: NetworkLocation) -> Point:
        """Workspace coordinates of a network location (linear interpolation)."""
        segment = self.edge_segment(location.edge_id)
        return segment.point_at_fraction(location.fraction)

    def location_at_node(self, node_id: int) -> NetworkLocation:
        """A :class:`NetworkLocation` equivalent to standing on *node_id*.

        Raises:
            NodeNotFoundError: if the node has no incident edges (isolated).
        """
        index = self._store.index_of_node(node_id)
        incident = self._incident_positions(index)
        if not len(incident):
            raise NodeNotFoundError(node_id)
        position = incident[0]
        fraction = 0.0 if self._store.edge_start[position] == index else 1.0
        return NetworkLocation(self._store.edge_ids[position], fraction)

    def validate_location(self, location: NetworkLocation) -> None:
        """Raise if the location references a non-existent edge."""
        if location.edge_id not in self._store.edge_index:
            raise EdgeNotFoundError(location.edge_id)

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> List[Set[int]]:
        """Node sets of the (undirected) connected components, by first node."""
        store = self._store
        node_ids = store.node_ids
        neighbors: List[List[int]] = [[] for _ in node_ids]
        for start, end in zip(store.edge_start, store.edge_end):
            neighbors[start].append(end)
            neighbors[end].append(start)
        seen = bytearray(len(node_ids))
        components: List[Set[int]] = []
        for root in range(len(node_ids)):
            if seen[root]:
                continue
            seen[root] = 1
            stack, component = [root], set()
            while stack:
                current = stack.pop()
                component.add(node_ids[current])
                for other in neighbors[current]:
                    if not seen[other]:
                        seen[other] = 1
                        stack.append(other)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True if the network has at most one connected component."""
        return len(self.connected_components()) <= 1

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------
    def copy(self) -> "RoadNetwork":
        """Return a deep, editable copy (also of a frozen network)."""
        clone = pickle.loads(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))
        clone._topology_version, clone._weight_version = self.node_count + self.edge_count, 0
        return clone


def _is_valid_weight(weight: object) -> bool:
    """A weight is valid when it is a positive, finite real number."""
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        return False
    return weight > 0 and weight != float("inf") and weight == weight


def _first_invalid_weight(weights: Iterable[object]) -> Optional[int]:
    """Position of the first weight :func:`_is_valid_weight` refuses, or None."""
    for position, weight in enumerate(weights):
        if not _is_valid_weight(weight):
            return position
    return None


def _columns_of_attribute_dicts(state: dict) -> Tuple[object, ...]:
    """The pickled columns of a network an older release pickled.

    That release pickled its ``_nodes`` / ``_edges`` dicts of :class:`Node`
    / :class:`Edge` values (a shard checkpoint's monitor carries one), in
    insertion order.
    """
    nodes, edges = list(state["_nodes"].values()), list(state["_edges"].values())
    node_ids = [node.node_id for node in nodes]
    node_index = dict(zip(node_ids, range(len(node_ids))))
    return (
        node_ids,
        array("d", (node.point.x for node in nodes)),
        array("d", (node.point.y for node in nodes)),
        [edge.edge_id for edge in edges],
        [node_index[edge.start] for edge in edges],
        [node_index[edge.end] for edge in edges],
        array("d", (edge.base_weight for edge in edges)),
        array("d", (edge.weight for edge in edges)),
        bytes(1 if edge.oneway else 0 for edge in edges),
        state["_topology_version"],
        state["_weight_version"],
    )


def _index(ids: Sequence[int]) -> Dict[int, int]:
    """id -> dense position; an id equal to its position is one int object, not two."""
    return {
        identifier: identifier if identifier == position else position
        for position, identifier in enumerate(ids)
    }


def _first_repeat(ids: Iterable[int]) -> int:
    """The first id of *ids* that occurs twice (the caller knows one does)."""
    return next(identifier for identifier, count in Counter(ids).items() if count > 1)
