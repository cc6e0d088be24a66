"""Road-network construction helpers and synthetic generators.

The paper evaluates on sub-networks of the San Francisco road map and on the
Oldenburg map, neither of which can be redistributed here.  The generators
in this module build synthetic networks with the same *statistical*
properties that matter to the algorithms:

* a planar, grid-like mesh of intersections (city blocks of irregular size),
* a tunable fraction of removed streets (dead ends, non-rectangular blocks),
* many degree-2 *shape points* obtained by subdividing streets, so that the
  sequence decomposition used by GMA produces long sequences — exactly the
  property the paper observes ("there are long sequences including many
  edges and queries").

All generators are deterministic given a seed.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from repro.exceptions import NetworkError
from repro.network.graph import RoadNetwork
from repro.utils.rng import RandomLike, make_rng
from repro.utils.validation import (
    require_fraction,
    require_non_negative,
    require_positive,
    require_positive_int,
)


def build_network(
    node_coords: Dict[int, Tuple[float, float]],
    edge_list: Sequence[Tuple[int, int, int]],
    weights: Optional[Dict[int, float]] = None,
) -> RoadNetwork:
    """Build a network from explicit node coordinates and an edge list.

    Args:
        node_coords: mapping ``node_id -> (x, y)``.
        edge_list: triples ``(edge_id, start_node, end_node)``.
        weights: optional explicit weights per edge id; edges not listed get
            the Euclidean length of their segment.
    """
    network = RoadNetwork()
    for node_id, (x, y) in node_coords.items():
        network.add_node(node_id, x, y)
    for edge_id, start, end in edge_list:
        weight = None if weights is None else weights.get(edge_id)
        network.add_edge(edge_id, start, end, weight)
    return network


def grid_network(
    rows: int,
    columns: int,
    spacing: float = 100.0,
    jitter: float = 0.0,
    seed: RandomLike = None,
) -> RoadNetwork:
    """A rows x columns grid of intersections connected by streets.

    Args:
        rows: number of horizontal street rows (>= 2).
        columns: number of vertical street columns (>= 2).
        spacing: nominal block size in workspace units.
        jitter: maximum random displacement applied to every intersection, as
            a fraction of *spacing* (0 disables perturbation).
        seed: RNG seed (int), generator, or None for the library default.

    Example::

        network = grid_network(columns=8, rows=6)
    """
    require_positive_int(rows, "rows")
    require_positive_int(columns, "columns")
    require_positive(spacing, "spacing")
    require_non_negative(jitter, "jitter")
    if rows < 2 or columns < 2:
        raise NetworkError("a grid network needs at least 2 rows and 2 columns")

    rng = make_rng(seed)
    network = RoadNetwork()
    node_id = 0
    ids: Dict[Tuple[int, int], int] = {}
    for r in range(rows):
        for c in range(columns):
            dx = rng.uniform(-jitter, jitter) * spacing if jitter else 0.0
            dy = rng.uniform(-jitter, jitter) * spacing if jitter else 0.0
            network.add_node(node_id, c * spacing + dx, r * spacing + dy)
            ids[(r, c)] = node_id
            node_id += 1

    edge_id = 0
    for r in range(rows):
        for c in range(columns):
            if c + 1 < columns:
                network.add_edge(edge_id, ids[(r, c)], ids[(r, c + 1)])
                edge_id += 1
            if r + 1 < rows:
                network.add_edge(edge_id, ids[(r, c)], ids[(r + 1, c)])
                edge_id += 1
    return network


def remove_random_edges(
    network: RoadNetwork,
    fraction: float,
    seed: RandomLike = None,
) -> int:
    """Remove a fraction of edges while keeping the network connected.

    Candidate edges are processed in random order; an edge is removed only
    if the network stays connected without it, i.e. if its two endpoints
    are still joined (a bidirectional search between them, not a pass over
    the whole network).  Returns the number of edges actually removed
    (which may be smaller than requested near the connectivity limit); a
    network that is not connected to begin with is left untouched and 0
    returned.

    Removals are only marked while candidates are tested, and the columns
    close up once at the end.  The result is what removing each candidate
    with :meth:`~RoadNetwork.remove_edge`, and re-adding each one whose
    removal disconnected the network, leaves: the re-added edges come last,
    in the order they came back, with all their values (base weight,
    current weight, one-way flag).
    """
    require_fraction(fraction, "fraction")
    rng = make_rng(seed)
    target = int(round(fraction * network.edge_count))
    if target == 0 or not network.is_connected():
        return 0
    edge_ids = list(network.edge_ids())
    rng.shuffle(edge_ids)
    store = network.columns
    starts, ends, edge_index = store.edge_start, store.edge_end, store.edge_index
    incident = [list(network._incident_positions(node)) for node in range(network.node_count)]
    degree = [len(positions) for positions in incident]
    gone = bytearray(network.edge_count)
    restored = []
    removed = 0
    for edge_id in edge_ids:
        if removed >= target:
            break
        position = edge_index[edge_id]
        start, end = starts[position], ends[position]
        # Quick degree check: never create isolated nodes.
        if degree[start] <= 1 or degree[end] <= 1:
            continue
        gone[position] = 1
        if _joined(incident, gone, starts, ends, start, end):
            removed += 1
            degree[start] -= 1
            degree[end] -= 1
        else:
            restored.append(position)
            gone[position] = 0
    back = set(restored)
    kept = [position for position, flag in enumerate(gone) if not flag and position not in back]
    network._reorder_edges(kept + restored, removed + len(restored), len(restored))
    return removed


def _joined(incident, gone, starts, ends, first: int, second: int) -> bool:
    """True if two dense node indices are connected, edges taken both ways.

    Edges at positions marked in *gone* are skipped.  A breadth-first
    search from each end, one level at a time from the smaller frontier:
    it stops when the two meet, or when either runs out (that side's whole
    component is then seen, and the other is not in it).
    """
    side_of = {first: 0, second: 1}
    frontiers = [[first], [second]]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        level = []
        for node in frontiers[side]:
            for position in incident[node]:
                if gone[position]:
                    continue
                other = starts[position] + ends[position] - node
                seen = side_of.get(other)
                if seen is None:
                    side_of[other] = side
                    level.append(other)
                elif seen != side:
                    return True
        frontiers[side] = level
    return False


def subdivide_edges(
    network: RoadNetwork,
    segments_per_edge: int = 2,
    probability: float = 1.0,
    seed: RandomLike = None,
) -> RoadNetwork:
    """Return a new network where edges are split into chains of segments.

    Splitting inserts degree-2 *shape points* along each selected edge, which
    is how real road maps represent curved streets.  This is essential for
    the GMA experiments: without degree-2 nodes every sequence is a single
    edge and shared execution degenerates.

    Args:
        network: source network (left untouched).
        segments_per_edge: how many segments each subdivided edge becomes.
        probability: fraction of edges that get subdivided.
        seed: RNG seed controlling which edges are selected.
    """
    require_positive_int(segments_per_edge, "segments_per_edge")
    require_fraction(probability, "probability")
    rng = make_rng(seed)

    result = RoadNetwork()
    for node in network.nodes():
        result.add_node(node.node_id, node.x, node.y)

    next_node_id = max(network.node_ids(), default=-1) + 1
    next_edge_id = 0
    for edge in network.edges():
        pieces = segments_per_edge if rng.random() < probability else 1
        if pieces <= 1:
            result.add_edge(next_edge_id, edge.start, edge.end, edge.weight)
            next_edge_id += 1
            continue
        start_point = network.node(edge.start).point
        end_point = network.node(edge.end).point
        previous = edge.start
        for piece in range(1, pieces):
            t = piece / pieces
            x = start_point.x + t * (end_point.x - start_point.x)
            y = start_point.y + t * (end_point.y - start_point.y)
            result.add_node(next_node_id, x, y)
            result.add_edge(next_edge_id, previous, next_node_id, edge.weight / pieces)
            previous = next_node_id
            next_node_id += 1
            next_edge_id += 1
        result.add_edge(next_edge_id, previous, edge.end, edge.weight / pieces)
        next_edge_id += 1
    return result


def city_network(
    target_edges: int,
    seed: RandomLike = None,
    jitter: float = 0.15,
    removal_fraction: float = 0.12,
    subdivision: int = 3,
    spacing: float = 100.0,
) -> RoadNetwork:
    """Synthetic city road network with approximately *target_edges* edges.

    The construction pipeline is: perturbed grid -> random street removal
    (keeping connectivity) -> subdivision into shape points.  The resulting
    degree distribution (terminals, degree-2 shape points, 3- and 4-way
    intersections) matches what the San Francisco / Oldenburg maps exhibit,
    which is what the paper's experiments depend on.

    Args:
        target_edges: approximate number of edges in the final network.
        seed: RNG seed for reproducibility.
        jitter: intersection displacement as a fraction of the block size.
        removal_fraction: fraction of streets removed from the full grid.
        subdivision: number of segments each street is divided into.
        spacing: nominal block size in workspace units.

    Example::

        network = city_network(target_edges=500, seed=7)
        print(network.node_count, network.edge_count)
    """
    require_positive_int(target_edges, "target_edges")
    require_positive_int(subdivision, "subdivision")
    rng = make_rng(seed)

    # A rows x cols grid has about 2 * rows * cols edges; after removal and
    # subdivision the edge count becomes roughly
    # 2 * rows * cols * (1 - removal_fraction) * subdivision.
    base_edges = target_edges / (subdivision * (1.0 - removal_fraction))
    side = max(2, int(round(math.sqrt(base_edges / 2.0))))

    grid = grid_network(side, side, spacing=spacing, jitter=jitter, seed=rng)
    remove_random_edges(grid, removal_fraction, seed=rng)
    network = subdivide_edges(grid, segments_per_edge=subdivision, seed=rng)
    return network


def linear_network(num_nodes: int, spacing: float = 100.0) -> RoadNetwork:
    """A simple path graph — handy for unit tests and worked examples.

    Example::

        network = linear_network(num_nodes=10, spacing=50.0)
    """
    require_positive_int(num_nodes, "num_nodes")
    if num_nodes < 2:
        raise NetworkError("a linear network needs at least 2 nodes")
    network = RoadNetwork()
    for node_id in range(num_nodes):
        network.add_node(node_id, node_id * spacing, 0.0)
    for edge_id in range(num_nodes - 1):
        network.add_edge(edge_id, edge_id, edge_id + 1)
    return network


def star_network(num_branches: int, branch_length: int = 1, spacing: float = 100.0) -> RoadNetwork:
    """A star: one hub with *num_branches* chains of *branch_length* edges."""
    require_positive_int(num_branches, "num_branches")
    require_positive_int(branch_length, "branch_length")
    network = RoadNetwork()
    network.add_node(0, 0.0, 0.0)
    node_id = 1
    edge_id = 0
    for branch in range(num_branches):
        angle = 2.0 * math.pi * branch / num_branches
        previous = 0
        for step in range(1, branch_length + 1):
            x = math.cos(angle) * spacing * step
            y = math.sin(angle) * spacing * step
            network.add_node(node_id, x, y)
            network.add_edge(edge_id, previous, node_id)
            previous = node_id
            node_id += 1
            edge_id += 1
    return network
