"""Exact network-distance oracle (Dijkstra) used as ground truth.

The monitoring algorithms never call this module on their hot path — they
use the incremental expansion engine in :mod:`repro.core.search`.  This
module exists as the *reference implementation*: a plain, obviously-correct
Dijkstra over the road network that tests and the verification harness use
to validate every k-NN result produced by OVH, IMA and GMA.

It also provides the shortest-path queries that the Brinkhoff-style mobility
generator needs (objects follow shortest paths towards random destinations).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import DisconnectedNetworkError, NodeNotFoundError
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork


def node_distances(
    network: RoadNetwork,
    source: int,
    max_distance: float = float("inf"),
) -> Dict[int, float]:
    """Shortest-path distances from *source* to every reachable node.

    Args:
        network: the road network.
        source: source node id.
        max_distance: stop expanding once the frontier exceeds this value;
            nodes farther than it may be missing from the result.

    Raises:
        NodeNotFoundError: if *source* does not exist.
    """
    if not network.has_node(source):
        raise NodeNotFoundError(source)
    dist: Dict[int, float] = {source: 0.0}
    settled: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        if d > max_distance:
            break
        settled[node] = d
        for _, neighbor, weight in network.neighbors(node):
            candidate = d + weight
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return settled


def multi_source_node_distances(
    network: RoadNetwork,
    sources: Dict[int, float],
    max_distance: float = float("inf"),
) -> Dict[int, float]:
    """Dijkstra from several sources with per-source starting distances."""
    dist: Dict[int, float] = dict(sources)
    settled: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(d, node) for node, d in sources.items()]
    heapq.heapify(heap)
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled or d > dist.get(node, float("inf")):
            continue
        if d > max_distance:
            break
        settled[node] = d
        for _, neighbor, weight in network.neighbors(node):
            candidate = d + weight
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return settled


def location_sources(network: RoadNetwork, location: NetworkLocation) -> Dict[int, float]:
    """Seed distances of the two endpoints of the edge containing *location*."""
    edge = network.edge(location.edge_id)
    sources: Dict[int, float] = {}
    start_cost = location.offset(edge.weight)
    end_cost = location.reversed_offset(edge.weight)
    if edge.oneway:
        # Travelling backwards along a one-way edge is not allowed: only the
        # end node is reachable directly from a point on the edge.
        sources[edge.end] = end_cost
    else:
        sources[edge.start] = start_cost
        sources[edge.end] = end_cost
    # Keep the smaller seed when the edge is a loop-like parallel pair.
    return sources


def network_distance(
    network: RoadNetwork,
    origin: NetworkLocation,
    target: NetworkLocation,
) -> float:
    """Exact network distance between two locations.

    Handles the same-edge case (direct travel along the edge versus a detour
    through the endpoints) and returns ``float('inf')`` when the target is
    unreachable.

    Example::

        distance = network_distance(network, location_a, location_b)
    """
    best = float("inf")
    origin_edge = network.edge(origin.edge_id)
    target_edge = network.edge(target.edge_id)

    if origin.edge_id == target.edge_id:
        direct = abs(origin.fraction - target.fraction) * origin_edge.weight
        if origin_edge.oneway and target.fraction < origin.fraction:
            direct = float("inf")
        best = min(best, direct)

    origin_dists = multi_source_node_distances(network, location_sources(network, origin))

    # Reach the target through either endpoint of its edge.
    target_start_cost = target.offset(target_edge.weight)
    target_end_cost = target.reversed_offset(target_edge.weight)
    via_start = origin_dists.get(target_edge.start, float("inf")) + target_start_cost
    via_end = origin_dists.get(target_edge.end, float("inf")) + target_end_cost
    if target_edge.oneway:
        # A one-way edge can only be entered at its start node.
        via_end = float("inf")
    return min(best, via_start, via_end)


def shortest_path_nodes(
    network: RoadNetwork,
    source: int,
    target: int,
) -> Tuple[float, List[int]]:
    """Shortest path between two nodes as ``(distance, [node ids])``.

    Raises:
        NodeNotFoundError: if either node does not exist.
        DisconnectedNetworkError: if no path exists.
    """
    if not network.has_node(source):
        raise NodeNotFoundError(source)
    if not network.has_node(target):
        raise NodeNotFoundError(target)
    dist: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    settled: set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            break
        for _, neighbor, weight in network.neighbors(node):
            candidate = d + weight
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                parent[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    if target not in settled:
        raise DisconnectedNetworkError(
            f"no path between nodes {source} and {target}"
        )
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return dist[target], path


def brute_force_object_distances(
    network: RoadNetwork,
    edge_table: EdgeTable,
    query: NetworkLocation,
) -> List[Tuple[int, float]]:
    """Exact distance from *query* to every reachable object, sorted.

    One plain multi-source Dijkstra followed by a linear scan over *all*
    data objects (unreachable ones are omitted); the shared core of the
    brute-force ground-truth helpers below.  Ties sort by object id.

    Example::

        pairs = brute_force_object_distances(network, edge_table, location)
    """
    origin_dists = multi_source_node_distances(network, location_sources(network, query))
    query_edge = network.edge(query.edge_id)
    results: List[Tuple[int, float]] = []
    for object_id, location in edge_table.all_objects():
        edge = network.edge(location.edge_id)
        start_cost = location.offset(edge.weight)
        end_cost = location.reversed_offset(edge.weight)
        via_start = origin_dists.get(edge.start, float("inf")) + start_cost
        via_end = origin_dists.get(edge.end, float("inf")) + end_cost
        if edge.oneway:
            via_end = float("inf")
        distance = min(via_start, via_end)
        if location.edge_id == query.edge_id:
            direct = abs(query.fraction - location.fraction) * query_edge.weight
            if query_edge.oneway and location.fraction < query.fraction:
                direct = float("inf")
            distance = min(distance, direct)
        if distance != float("inf"):
            results.append((object_id, distance))
    results.sort(key=lambda item: (item[1], item[0]))
    return results


def brute_force_knn(
    network: RoadNetwork,
    edge_table: EdgeTable,
    query: NetworkLocation,
    k: int,
) -> List[Tuple[int, float]]:
    """Reference k-NN: compute the distance to *every* object and sort.

    Quadratic and slow by design — it is the ground truth the monitoring
    algorithms are validated against in the test suite.

    Returns:
        Up to *k* ``(object_id, distance)`` pairs ordered by distance, ties
        broken by object id for determinism.

    Example::

        truth = brute_force_knn(network, edge_table, query_location, k=4)
    """
    return brute_force_object_distances(network, edge_table, query)[:k]


def brute_force_range(
    network: RoadNetwork,
    edge_table: EdgeTable,
    query: NetworkLocation,
    radius: float,
) -> List[Tuple[int, float]]:
    """Reference range query: every object within *radius*, sorted.

    The ground truth of continuous range monitoring: the full
    ``(object_id, distance)`` list of objects at network distance at most
    *radius* (inclusive), ordered like :func:`brute_force_knn`.

    Example::

        in_range = brute_force_range(network, edge_table, location, 25.0)
    """
    return [
        pair
        for pair in brute_force_object_distances(network, edge_table, query)
        if pair[1] <= radius
    ]


def brute_force_aggregate_knn(
    network: RoadNetwork,
    edge_table: EdgeTable,
    points: Sequence[NetworkLocation],
    k: int,
    agg: str = "sum",
) -> List[Tuple[int, float]]:
    """Reference aggregate k-NN over several query points.

    The aggregate distance of an object is the ``"sum"`` or ``"max"`` of
    its exact network distances from every point; objects unreachable from
    any point aggregate to infinity and are omitted.  Returns up to *k*
    ``(object_id, aggregate_distance)`` pairs ordered by (distance, id).

    Example::

        truth = brute_force_aggregate_knn(network, edge_table, (a, b), k=3)
    """
    per_point = [
        dict(brute_force_object_distances(network, edge_table, point))
        for point in points
    ]
    if not per_point:
        return []
    merged: List[Tuple[float, int]] = []
    for object_id, total in per_point[0].items():
        for other in per_point[1:]:
            distance = other.get(object_id)
            if distance is None:
                break
            if agg == "sum":
                total += distance
            elif distance > total:
                total = distance
        else:
            merged.append((total, object_id))
    merged.sort()
    return [(object_id, distance) for distance, object_id in merged[:k]]


def eccentricity(network: RoadNetwork, source: int) -> float:
    """Largest finite shortest-path distance from *source* (diameter helper)."""
    distances = node_distances(network, source)
    return max(distances.values(), default=0.0)

