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

from array import array
from dataclasses import field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
#: result) and all kernels agree byte-for-byte.  See ``docs/queries.md``.
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


@value_class
class Edge:
    """A road segment between two nodes.

    Attributes:
        edge_id: unique identifier.
        start: id of the start node.
        end: id of the end node.
        weight: current travel cost (positive, mutable via the network).
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
            self.base_weight = self.weight

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

    Example::

        network = RoadNetwork()
        network.add_node(1, x=0.0, y=0.0)
        network.add_node(2, x=3.0, y=4.0)
        network.add_edge(10, 1, 2)             # weight defaults to length 5.0
        network.freeze()                       # what a server does
        network.set_edge_weight(10, 7.5)       # congestion
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._edges: Dict[int, Edge] = {}
        self._adjacency: Dict[int, List[int]] = {}
        self._weight_version = 0
        self._topology_version = 0
        self._frozen = False
        self._weight_listeners: List[Callable[[Optional[int], float], None]] = []

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"RoadNetwork(nodes={len(self._nodes)}, edges={len(self._edges)})"
        )

    def __getstate__(self) -> Dict[str, object]:
        """Pickle everything except the weight listeners and the freeze.

        Listeners are in-process callbacks (typically closures owned by CSR
        snapshots), meaningless in another process.  Like :meth:`copy`, a
        pickled replica starts editable and without listeners.
        """
        state = self.__dict__.copy()
        state["_weight_listeners"] = []
        state["_frozen"] = False
        return state

    @property
    def node_count(self) -> int:
        """Number of nodes in the network."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges in the network."""
        return len(self._edges)

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

    def freeze(self) -> None:
        """Fix the topology for good; weights stay mutable (idempotent).

        The CSR snapshot, every edge table and every server call it, so the
        nodes and edges they index stay the network's: ``add_node`` /
        ``add_edge`` / ``remove_edge`` then raise :class:`TopologyFrozenError`.
        """
        self._frozen = True

    # ------------------------------------------------------------------
    # change notification
    # ------------------------------------------------------------------
    def add_weight_listener(
        self, listener: Callable[[Optional[int], float], None]
    ) -> None:
        """Register a callback invoked on every weight change.

        The callback receives ``(edge_id, new_weight)`` for a single-edge
        update and ``(None, 0.0)`` when every weight may have changed at once
        (:meth:`reset_weights`).  Listeners enable derived structures such as
        the CSR snapshot to refresh incrementally instead of rebuilding.
        """
        if listener not in self._weight_listeners:
            self._weight_listeners.append(listener)

    def remove_weight_listener(
        self, listener: Callable[[Optional[int], float], None]
    ) -> None:
        """Unregister a weight listener; no-op when it is not registered."""
        try:
            self._weight_listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, x: float, y: float) -> Node:
        """Add a node at coordinates ``(x, y)``.

        Raises:
            TopologyFrozenError: if the network is frozen.
            DuplicateNodeError: if the id already exists.
        """
        if self._frozen:
            raise TopologyFrozenError(f"add node {node_id!r}")
        if node_id in self._nodes:
            raise DuplicateNodeError(node_id)
        node = Node(node_id, Point(float(x), float(y)))
        self._nodes[node_id] = node
        self._adjacency[node_id] = []
        self._topology_version += 1
        return node

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
        """
        if self._frozen:
            raise TopologyFrozenError(f"add edge {edge_id!r}")
        if edge_id in self._edges:
            raise DuplicateEdgeError(edge_id)
        if start not in self._nodes:
            raise NodeNotFoundError(start)
        if end not in self._nodes:
            raise NodeNotFoundError(end)
        if weight is None:
            weight = self._nodes[start].point.distance_to(self._nodes[end].point)
            if weight <= 0.0:
                # Coincident endpoints get a tiny positive weight so the edge
                # remains usable; generators avoid this situation anyway.
                weight = 1e-9
        if not _is_valid_weight(weight):
            raise InvalidWeightError(weight)
        edge = Edge(edge_id, start, end, float(weight), float(weight), oneway)
        self._edges[edge_id] = edge
        self._adjacency[start].append(edge_id)
        self._adjacency[end].append(edge_id)
        self._topology_version += 1
        return edge

    def remove_edge(self, edge_id: int) -> None:
        """Remove an edge from the network.

        Raises:
            TopologyFrozenError: if the network is frozen.
            EdgeNotFoundError: if the edge does not exist.
        """
        if self._frozen:
            raise TopologyFrozenError(f"remove edge {edge_id!r}")
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            raise EdgeNotFoundError(edge_id)
        self._adjacency[edge.start].remove(edge_id)
        self._adjacency[edge.end].remove(edge_id)
        self._weight_version += 1
        self._topology_version += 1

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """Return the node with the given id.

        Raises:
            NodeNotFoundError: if it does not exist.
        """
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise NodeNotFoundError(node_id) from exc

    def edge(self, edge_id: int) -> Edge:
        """Return the edge with the given id.

        Raises:
            EdgeNotFoundError: if it does not exist.
        """
        try:
            return self._edges[edge_id]
        except KeyError as exc:
            raise EdgeNotFoundError(edge_id) from exc

    def has_node(self, node_id: int) -> bool:
        """True when a node with this id exists."""
        return node_id in self._nodes

    def has_edge(self, edge_id: int) -> bool:
        """True when an edge with this id exists."""
        return edge_id in self._edges

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        return iter(self._edges.values())

    def node_ids(self) -> Iterator[int]:
        """Iterate over all node ids."""
        return iter(self._nodes.keys())

    def edge_ids(self) -> Iterator[int]:
        """Iterate over all edge ids."""
        return iter(self._edges.keys())

    def edge_between(self, u: int, v: int) -> Optional[int]:
        """Return the id of an edge connecting *u* and *v*, if any.

        Among parallel edges: the latest added running *u* -> *v*, else the
        earliest running *v* -> *u* (a scan of *u*'s few adjacent edges).
        """
        forward = backward = None
        for edge_id in self._adjacency.get(u, ()):
            edge = self._edges[edge_id]
            if edge.start == u and edge.end == v:
                forward = edge_id
            elif backward is None and edge.start == v and edge.end == u:
                backward = edge_id
        return backward if forward is None else forward

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def incident_edges(self, node_id: int) -> Sequence[int]:
        """Return the ids of the edges incident to *node_id*.

        Raises:
            NodeNotFoundError: if the node does not exist.
        """
        try:
            return tuple(self._adjacency[node_id])
        except KeyError as exc:
            raise NodeNotFoundError(node_id) from exc

    def degree(self, node_id: int) -> int:
        """Number of incident edges (bidirectional edges count once)."""
        return len(self.incident_edges(node_id))

    def neighbors(self, node_id: int) -> List[Tuple[int, int, float]]:
        """Return ``(edge_id, neighbor_node_id, weight)`` triples from *node_id*.

        One-way edges are only reported in their traversable direction.
        """
        result: List[Tuple[int, int, float]] = []
        for edge_id in self.incident_edges(node_id):
            edge = self._edges[edge_id]
            if edge.oneway and edge.start != node_id:
                continue
            result.append((edge_id, edge.other_endpoint(node_id), edge.weight))
        return result

    def intersection_nodes(self) -> List[int]:
        """Node ids with degree different from 2 (sequence endpoints)."""
        return [node_id for node_id in self._nodes if self.degree(node_id) != 2]

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def set_edge_weight(self, edge_id: int, weight: float) -> float:
        """Set the current weight of an edge and return the previous value.

        Raises:
            EdgeNotFoundError: if the edge does not exist.
            InvalidWeightError: if the weight is not positive and finite.
        """
        edge = self.edge(edge_id)
        if not _is_valid_weight(weight):
            raise InvalidWeightError(weight)
        previous = edge.weight
        edge.weight = float(weight)
        self._weight_version += 1
        # Iterate a copy: listeners may unregister themselves when notified.
        for listener in tuple(self._weight_listeners):
            listener(edge_id, edge.weight)
        return previous

    def scale_edge_weight(self, edge_id: int, factor: float) -> float:
        """Multiply the current weight of an edge by *factor*.

        Returns the previous weight.  Used by the traffic model (±10 %
        fluctuations in the paper's experiments).
        """
        require_positive(factor, "factor")
        edge = self.edge(edge_id)
        return self.set_edge_weight(edge_id, edge.weight * factor)

    def reset_weights(self) -> None:
        """Restore every edge's weight to its base (initial) value."""
        for edge in self._edges.values():
            edge.weight = edge.base_weight
        self._weight_version += 1
        for listener in tuple(self._weight_listeners):
            listener(None, 0.0)

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
        return array("d", [edge.weight for edge in self._edges.values()])

    def restore_weights(self, weights: Sequence[float], weight_version: int) -> None:
        """Overlay a :meth:`weight_column` and its version onto this network.

        The column must come from a network of the same topology (equal
        :attr:`topology_version`): weights are matched to edges by position.
        Listeners are told every weight may have changed.

        Raises:
            NetworkError: if the column's length is not the edge count.
        """
        if len(weights) != len(self._edges):
            raise NetworkError(
                f"weight column holds {len(weights)} values for {len(self._edges)} edges"
            )
        for edge, weight in zip(self._edges.values(), weights):
            edge.weight = weight
        self._weight_version = weight_version
        for listener in tuple(self._weight_listeners):
            listener(None, 0.0)

    def total_weight(self) -> float:
        """Sum of all current edge weights."""
        return sum(edge.weight for edge in self._edges.values())

    def average_edge_weight(self) -> float:
        """Mean current edge weight (0 for an empty network)."""
        if not self._edges:
            return 0.0
        return self.total_weight() / len(self._edges)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def edge_segment(self, edge_id: int) -> Segment:
        """Return the straight-line segment between an edge's endpoints."""
        edge = self.edge(edge_id)
        return Segment(self._nodes[edge.start].point, self._nodes[edge.end].point)

    def bounding_box(self, margin: float = 0.0) -> Rect:
        """Bounding rectangle of all node coordinates.

        Raises:
            NodeNotFoundError: if the network has no nodes.
        """
        if not self._nodes:
            raise NodeNotFoundError(-1)
        rect = Rect.from_points(node.point for node in self._nodes.values())
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
        incident = self.incident_edges(node_id)
        if not incident:
            raise NodeNotFoundError(node_id)
        edge = self._edges[incident[0]]
        fraction = 0.0 if edge.start == node_id else 1.0
        return NetworkLocation(incident[0], fraction)

    def validate_location(self, location: NetworkLocation) -> None:
        """Raise if the location references a non-existent edge."""
        if location.edge_id not in self._edges:
            raise EdgeNotFoundError(location.edge_id)

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> List[Set[int]]:
        """Node sets of the (undirected) connected components."""
        unseen = set(self._nodes)
        components: List[Set[int]] = []
        while unseen:
            root = next(iter(unseen))
            component: Set[int] = set()
            stack = [root]
            while stack:
                current = stack.pop()
                if current in component:
                    continue
                component.add(current)
                for edge_id in self._adjacency[current]:
                    other = self._edges[edge_id].other_endpoint(current)
                    if other not in component:
                        stack.append(other)
            unseen -= component
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
        clone = RoadNetwork()
        for node in self._nodes.values():
            clone.add_node(node.node_id, node.x, node.y)
        for edge in self._edges.values():
            new_edge = clone.add_edge(
                edge.edge_id, edge.start, edge.end, edge.weight, edge.oneway
            )
            new_edge.base_weight = edge.base_weight
        return clone


def _is_valid_weight(weight: object) -> bool:
    """A weight is valid when it is a positive, finite real number."""
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        return False
    return weight > 0 and weight != float("inf") and weight == weight
