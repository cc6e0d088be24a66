"""Workload definitions and the seed -> inputs generators of the e2e benchmark.

Everything the service is fed is derived here from ``--seed`` and written
under the run's workdir *before* the service is launched; the service
itself never sees the seed.  A workload's inputs are

* ``city.ways`` — the city as a ways file (``synthetic_city_text``),
* ``initial.bin`` — the initial objects and queries, one ``encode_batch``
  payload the launcher feeds through ``apply_updates``.

Every tick's input (an ``encode_batch`` payload for the batch workloads, a
list of coordinate verbs for ``fleet-verbs``) stays in the driver's memory:
the driver is what sends it.

Workloads that share an ``input_key`` get byte-identical inputs (that is
what makes ``query-storm`` / ``query-storm-2w`` a pair).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.events import (
    EdgeWeightUpdate,
    ObjectUpdate,
    QueryUpdate,
    UpdateBatch,
    encode_batch,
)
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.realism import (
    CitySpec,
    RushHourModel,
    RushHourSpec,
    import_road_network,
    synthetic_city_text,
)

#: Query ids start here (clear of object ids, as everywhere else in the repo).
QUERY_ID_BASE = 1_000_000

#: ``run_seconds`` of BENCHMARK.json: the run length the tick counts below
#: are sized for.  ``--seconds S`` scales every count by ``S / RUN_SECONDS``.
RUN_SECONDS = 18

#: Rush-hour traffic of ``city-rush``: waves + incidents + a trickle of
#: closures, refreshed at 2% of the edges per tick (the bench_city_scale
#: feed: a heavy but realistic sensor stream, not a full sweep).
CITY_TRAFFIC = RushHourSpec(
    ticks_per_day=48,
    incident_rate=2.0,
    closure_rate=0.2,
    closure_duration=(2, 5),
    congestion_update_fraction=0.02,
)


@dataclass(frozen=True)
class Workload:
    """Shape of one workload: sizes, per-tick stream, deployment, pacing."""

    name: str
    why: str
    #: workloads with the same key get byte-identical inputs
    input_key: str
    target_edges: int
    objects: int
    queries: int
    k: int
    algorithm: str = "ima"
    #: deployment: None = single process (library default)
    workers: Optional[int] = None
    partitioning: Optional[str] = None
    #: per-tick stream of the batch workloads (fractions of the population)
    object_move_fraction: float = 0.0
    query_move_fraction: float = 0.0
    edge_fraction: float = 0.0
    rush_hour: bool = False
    #: per-tick stream of the verb workload (absolute counts; 0 = batch mode)
    verb_object_moves: int = 0
    verb_query_moves: int = 0
    verb_edge_updates: int = 0
    verb_query_churn: int = 0
    #: tick counts at RUN_SECONDS
    warm_ticks: int = 16
    closed_ticks: int = 96
    open_ticks: int = 208
    #: fixed open-loop period: about twice the closed-loop tick of the seed
    #: commit on the reference sandbox, i.e. ~50% utilisation
    open_period_ms: float = 100.0

    @property
    def verbs(self) -> bool:
        """True when ticks are streams of individual coordinate verbs."""
        return self.verb_object_moves > 0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="city-rush",
        why="one big apply frame per tick on a large city: ingest, codec, WAL and checkpoint bound",
        input_key="city-rush",
        target_edges=20_000,
        objects=20_000,
        queries=64,
        k=8,
        object_move_fraction=0.01,
        rush_hour=True,
        open_period_ms=60.0,
    ),
    Workload(
        name="query-storm",
        why="half the queries move every tick: expansion kernel, influence flush and monitor bound",
        input_key="query-storm",
        target_edges=6_000,
        objects=1_000,
        queries=40,
        k=16,
        object_move_fraction=0.10,
        query_move_fraction=0.50,
        edge_fraction=0.01,
        open_period_ms=50.0,
    ),
    Workload(
        name="query-storm-2w",
        why="query-storm's byte-identical inputs on 2 graph-partitioned workers: isolates what sharding costs",
        input_key="query-storm",
        target_edges=6_000,
        objects=1_000,
        queries=40,
        k=16,
        workers=2,
        partitioning="graph",
        object_move_fraction=0.10,
        query_move_fraction=0.50,
        edge_fraction=0.01,
        open_period_ms=70.0,
    ),
    Workload(
        name="fleet-verbs",
        why="hundreds of small coordinate verbs per tick on GMA: frame round trips, snapping, query churn, reads beside writes",
        input_key="fleet-verbs",
        target_edges=6_000,
        objects=5_000,
        queries=64,
        k=8,
        algorithm="gma",
        verb_object_moves=80,
        verb_query_moves=6,
        verb_edge_updates=8,
        verb_query_churn=1,
        open_period_ms=60.0,
    ),
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def smoke(workload: Workload) -> Workload:
    """The ``--smoke`` sizing: same shape and deployment, a tenth of the city."""
    return replace(
        workload,
        target_edges=workload.target_edges // 10,
        objects=workload.objects // 10,
        queries=max(8, workload.queries // 4),
        verb_object_moves=workload.verb_object_moves // 4,
        warm_ticks=16,
        closed_ticks=16,
        open_ticks=16,
        open_period_ms=20.0,
    )


@dataclass
class Tick:
    """One tick's input plus what the mirror needs to follow it."""

    #: batch mode: the ``encode_batch`` payload sent in one ``apply`` frame
    payload: Optional[bytes] = None
    #: batch mode: the batch itself (the driver's mirror applies it)
    batch: Optional[UpdateBatch] = None
    #: verb mode: ``(verb, *args)`` request tuples, sent one frame each
    verbs: List[tuple] = field(default_factory=list)
    #: net object + query + edge updates this tick carries
    updates: int = 0


@dataclass
class Inputs:
    """Everything generated from the seed for one workload run."""

    workload: Workload
    ways_path: str
    initial_path: str
    #: the driver's own copy of the network, at its imported weights
    network: RoadNetwork
    objects: Dict[int, NetworkLocation]
    queries: Dict[int, Tuple[NetworkLocation, int]]
    ticks: List[Tick]
    #: edge count of the imported city (for the env block)
    edges: int = 0


def _walk(network: RoadNetwork, rng: random.Random, location: NetworkLocation):
    """One step of a network random walk: hop to an edge at either endpoint."""
    node = rng.choice(network.edge(location.edge_id).endpoints())
    return NetworkLocation(rng.choice(network.incident_edges(node)), rng.random())


def _hotspot_edges(network: RoadNetwork, node: int, hops: int) -> List[int]:
    """Edges within *hops* of *node*, in deterministic BFS order."""
    seen = {node}
    frontier = [node]
    edges: List[int] = []
    edge_seen = set()
    for _ in range(hops):
        next_frontier = []
        for current in frontier:
            for edge_id in network.incident_edges(current):
                if edge_id not in edge_seen:
                    edge_seen.add(edge_id)
                    edges.append(edge_id)
                other = network.edge(edge_id).other_endpoint(current)
                if other not in seen:
                    seen.add(other)
                    next_frontier.append(other)
        frontier = next_frontier
    return edges


def generate(workload: Workload, seed: int, workdir, total_ticks: int) -> Inputs:
    """Generate and write every input of *workload* for *seed*.

    Deterministic from ``(workload.input_key, seed, total_ticks)``.
    """
    rng = random.Random(f"e2e/{workload.input_key}/{seed}")
    ways_path = f"{workdir}/city.ways"
    with open(ways_path, "w", encoding="utf-8") as stream:
        stream.write(
            synthetic_city_text(CitySpec.for_target_edges(workload.target_edges), seed)
        )
    imported = import_road_network(ways_path)
    network = imported.network
    edges = sorted(network.edge_ids())

    def draw_location() -> NetworkLocation:
        return NetworkLocation(rng.choice(edges), rng.random())

    objects = {object_id: draw_location() for object_id in range(workload.objects)}
    hotspots: List[List[int]] = []
    if workload.verbs:
        nodes = sorted(network.node_ids())
        hotspots = [
            _hotspot_edges(network, rng.choice(nodes), hops=3)
            for _ in range(max(1, workload.queries // 16))
        ]
        queries = {
            QUERY_ID_BASE + index: (
                NetworkLocation(rng.choice(rng.choice(hotspots)), rng.random()),
                workload.k,
            )
            for index in range(workload.queries)
        }
    else:
        queries = {
            QUERY_ID_BASE + index: (draw_location(), workload.k)
            for index in range(workload.queries)
        }

    initial = UpdateBatch(timestamp=0)
    initial.object_updates.extend(
        ObjectUpdate(object_id, None, location) for object_id, location in objects.items()
    )
    initial.query_updates.extend(
        QueryUpdate(query_id, None, location, k)
        for query_id, (location, k) in queries.items()
    )
    initial_path = f"{workdir}/initial.bin"
    with open(initial_path, "wb") as stream:
        stream.write(encode_batch(initial))

    if workload.verbs:
        ticks = _verb_ticks(workload, rng, network, objects, queries, hotspots, total_ticks)
    else:
        ticks = _batch_ticks(
            workload, rng, seed, network, imported.speed_classes, objects, queries, total_ticks
        )
    return Inputs(
        workload=workload,
        ways_path=ways_path,
        initial_path=initial_path,
        network=network,
        objects=objects,
        queries=queries,
        ticks=ticks,
        edges=len(edges),
    )


def _batch_ticks(
    workload, rng, seed, network, speed_classes, objects, queries, total_ticks
) -> List[Tick]:
    """Pre-snapped ``UpdateBatch`` ticks (city-rush, query-storm*)."""
    object_locations = dict(objects)
    query_locations = {query_id: location for query_id, (location, _) in queries.items()}
    object_ids = sorted(object_locations)
    query_ids = sorted(query_locations)
    edges = sorted(network.edge_ids())
    weights = {edge_id: network.edge(edge_id).weight for edge_id in edges}
    traffic = None
    if workload.rush_hour:
        traffic = RushHourModel(
            network, spec=CITY_TRAFFIC, seed=seed, speed_classes=speed_classes
        )
    object_movers = round(len(object_ids) * workload.object_move_fraction)
    query_movers = round(len(query_ids) * workload.query_move_fraction)
    edge_changes = round(len(edges) * workload.edge_fraction)
    ticks: List[Tick] = []
    for index in range(total_ticks):
        batch = UpdateBatch(timestamp=index + 1)
        if traffic is not None:
            batch.edge_updates.extend(traffic.tick(index))
        for edge_id in rng.sample(edges, edge_changes):
            base = network.edge(edge_id).base_weight
            new_weight = base * rng.uniform(0.7, 1.8)
            batch.edge_updates.append(
                EdgeWeightUpdate(edge_id, weights[edge_id], new_weight)
            )
            weights[edge_id] = new_weight
        for object_id in rng.sample(object_ids, object_movers):
            old = object_locations[object_id]
            new = _walk(network, rng, old)
            batch.object_updates.append(ObjectUpdate(object_id, old, new))
            object_locations[object_id] = new
        for query_id in rng.sample(query_ids, query_movers):
            old = query_locations[query_id]
            new = _walk(network, rng, old)
            batch.query_updates.append(QueryUpdate(query_id, old, new))
            query_locations[query_id] = new
        # Ids are distinct within a tick by construction and neither stream
        # emits a no-op, so the batch is already net: len() is the count
        # normalized() would give.
        ticks.append(Tick(payload=encode_batch(batch), batch=batch, updates=len(batch)))
    return ticks


def _verb_ticks(
    workload, rng, network, objects, queries, hotspots, total_ticks
) -> List[Tick]:
    """Coordinate-verb ticks (fleet-verbs): a GPS fleet, snapped by the service.

    Every object keeps a true position doing a bounded planar random walk;
    the verb carries that position and the *service* snaps it, so the
    mirror learns the network location from the verb's reply.
    """
    box = network.bounding_box()
    step = math.sqrt((box.max_x - box.min_x) * (box.max_y - box.min_y) / len(objects))

    def clamp(value, low, high):
        return min(high, max(low, value))

    def jitter(point, scale):
        return (
            clamp(point[0] + rng.gauss(0.0, scale), box.min_x, box.max_x),
            clamp(point[1] + rng.gauss(0.0, scale), box.min_y, box.max_y),
        )

    def point_of(location):
        point = network.location_point(location)
        return (point.x, point.y)

    positions = {object_id: point_of(location) for object_id, location in objects.items()}
    object_ids = sorted(positions)
    hotspot_points = [point_of(NetworkLocation(edge_ids[0], 0.5)) for edge_ids in hotspots]
    live_queries = sorted(queries)
    next_query_id = max(live_queries) + 1
    edges = sorted(network.edge_ids())
    ticks: List[Tick] = []
    for _ in range(total_ticks):
        verbs: List[tuple] = []
        for object_id in rng.sample(object_ids, workload.verb_object_moves):
            positions[object_id] = jitter(positions[object_id], step)
            verbs.append(("move_object", object_id) + positions[object_id])
        # Churn first so a query is never both moved and removed in one tick
        # (each verb is then one net update).
        removed = live_queries[: workload.verb_query_churn]
        live_queries = live_queries[workload.verb_query_churn :]
        for query_id in rng.sample(live_queries, workload.verb_query_moves):
            verbs.append(
                ("move_query", query_id) + jitter(rng.choice(hotspot_points), 2.0 * step)
            )
        for edge_id in rng.sample(edges, workload.verb_edge_updates):
            base = network.edge(edge_id).base_weight
            verbs.append(("update_edge", edge_id, base * rng.uniform(0.7, 1.8)))
        for query_id in removed:
            verbs.append(("remove_query", query_id))
        for _ in range(workload.verb_query_churn):
            verbs.append(
                ("add_query", next_query_id)
                + jitter(rng.choice(hotspot_points), 2.0 * step)
                + (workload.k,)
            )
            live_queries.append(next_query_id)
            next_query_id += 1
        ticks.append(Tick(verbs=verbs, updates=len(verbs)))
    return ticks
