"""Memory layout: slotted value classes, no per-entity dicts, no shadow maps.

The server keeps the road network, the edge table and every object
placement in memory for as long as it runs, so whatever one node, edge or
location costs is multiplied by the size of the city.  The layout rule (see
``docs/architecture.md``) is that the value classes are slotted and that no
code path ever gives one of their instances a ``__dict__`` — not building a
network, not decoding a batch record, not pickling, not taking a snapshot.
The rule is pinned here, together with what replaced the per-edge
bookkeeping that no query read: ``RoadNetwork.edge_between`` answers from
adjacency, and a weight write finds the edge's adjacency slots in the
store's slot columns.  A frozen network is held once, as its column store
(no node or edge object lives on; ``node()`` / ``edge()`` hand out
read-only values), under a traced bound on the e2e city, and the importer
builds those columns directly, under a bound on its traced peak.  GMA's
sequence table, derived from that store, is columns too, under a traced
bound on the e2e ``fleet-verbs`` city.  So are
the two things a serving process no longer holds or allocates: a set per
populated edge (the edge table keeps lists, whose order no result depends
on) and a pickle memo of the whole network while writing the base (it is
streamed as a columnar record).
"""

from __future__ import annotations

import gc
import pickle
import random
import tracemalloc
from array import array
from dataclasses import FrozenInstanceError

import pytest

from repro import DurableMonitoringServer, MonitoringServer, city_network
from repro.core.events import (
    EdgeWeightUpdate,
    ObjectUpdate,
    UpdateBatch,
    decode_batch,
    encode_batch,
)
from repro.core.server import restore_server
from repro.network.builders import linear_network
from repro.network.csr import csr_snapshot
from repro.network.graph import Edge, NetworkLocation, Node, RoadNetwork
from repro.network.sequences import SequenceTable
from repro.realism import CitySpec, import_ways_text, synthetic_city_network, synthetic_city_text
from repro.spatial.geometry import Point, Rect, Segment
from repro.spatial.pmr_quadtree import PMRQuadtree
from snapshot_columns import rewrite_object_columns

SLOTTED = (Point, Rect, Segment, Node, Edge, NetworkLocation, ObjectUpdate, EdgeWeightUpdate)


def _assert_no_dicts(instances) -> int:
    """Fail on the first instance that carries a ``__dict__``; count them."""
    count = 0
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance).__name__
        count += 1
    return count


def _network_instances(network: RoadNetwork):
    for node in network.nodes():
        yield node
        yield node.point
    for edge in network.edges():
        yield edge
        yield network.edge_segment(edge.edge_id)


def _table_instances(server: MonitoringServer):
    """The table's value objects: the index's workspace and every location.

    The index holds no per-edge object to check: its leaves are positions
    into the network's columns (see :func:`_index_columns`).
    """
    table = server.edge_table
    index = table.spatial_index
    yield index.bounds
    for name, column in _index_columns(index).items():
        assert type(column) in (list, array), name
    for _, location in table.all_objects():
        yield location


def _index_columns(index: PMRQuadtree) -> dict:
    """The index's own attributes, less the network store it reads."""
    return {
        name: value
        for name, value in vars(index).items()
        if value is not index._store and value is not index.bounds
    }


def _small_server(seed: int = 3) -> MonitoringServer:
    network = city_network(60, seed=seed)
    server = MonitoringServer(network, algorithm="ima")
    rng = random.Random(seed)
    edges = sorted(network.edge_ids())
    for object_id in range(40):
        server.add_object(object_id, NetworkLocation(rng.choice(edges), rng.random()))
    server.add_query(1_000, NetworkLocation(edges[0], 0.5), 3)
    server.tick()
    return server


# ----------------------------------------------------------------------
# the layout of each class
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_value_class_defines_slots_and_no_dict(cls):
    assert "__slots__" in vars(cls)
    assert cls.__dictoffset__ == 0


@pytest.mark.parametrize(
    "instance",
    [
        Point(1.0, 2.0),
        Rect(0.0, 0.0, 1.0, 1.0),
        Segment(Point(0.0, 0.0), Point(3.0, 4.0)),
        Node(5, Point(1.0, 1.0)),
        Edge(7, 1, 2, 3.5),
        NetworkLocation(7, 0.25),
        ObjectUpdate(9, None, NetworkLocation(7, 0.25)),
        EdgeWeightUpdate(7, 3.5, 4.0),
    ],
    ids=lambda instance: type(instance).__name__,
)
def test_pickle_round_trip_keeps_value_and_layout(instance):
    """Same value back, no dict, and the frozen classes are still frozen."""
    clone = pickle.loads(pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == instance and type(clone) is type(instance)
    _assert_no_dicts([instance, clone])
    with pytest.raises(FrozenInstanceError):
        clone.__setattr__(next(iter(type(instance).__slots__)), 0)


# ----------------------------------------------------------------------
# no code path gives an instance a dict
# ----------------------------------------------------------------------
def test_network_build_makes_no_dicts():
    server = _small_server()
    assert _assert_no_dicts(_network_instances(server.network)) > 0
    assert _assert_no_dicts(_table_instances(server)) > 0


def test_decoded_batch_makes_no_dicts():
    batch = UpdateBatch(timestamp=4)
    batch.object_updates.append(ObjectUpdate(1, None, NetworkLocation(3, 0.5)))
    batch.add_object_move(2, NetworkLocation(3, 0.1), NetworkLocation(4, 0.9))
    batch.object_updates.append(ObjectUpdate(3, NetworkLocation(5, 1.0), None))
    batch.add_edge_change(12, old_weight=5.0, new_weight=6.5)
    decoded = decode_batch(encode_batch(batch))
    assert decoded == batch
    instances = list(decoded.object_updates) + list(decoded.edge_updates)
    for update in decoded.object_updates:
        instances.extend(
            location
            for location in (update.old_location, update.new_location)
            if location is not None
        )
    assert _assert_no_dicts(instances) == 8


def test_pickled_network_makes_no_dicts_on_either_side():
    network = city_network(40, seed=5)
    replica = pickle.loads(pickle.dumps(network, protocol=pickle.HIGHEST_PROTOCOL))
    assert _assert_no_dicts(_network_instances(network)) > 0
    assert _assert_no_dicts(_network_instances(replica)) > 0
    assert [edge.endpoints() for edge in replica.edges()] == [
        edge.endpoints() for edge in network.edges()
    ]


def test_snapshot_state_makes_no_dicts():
    """Pickling the static section must not leave a dict on any live instance."""
    server = _small_server(seed=8)
    blob = server.snapshot_state()
    _assert_no_dicts(_network_instances(server.network))
    _assert_no_dicts(_table_instances(server))
    clone = restore_server(blob)
    _assert_no_dicts(_network_instances(clone.network))
    _assert_no_dicts(_table_instances(clone))
    assert clone.results() == server.results()


# ----------------------------------------------------------------------
# what one tick and one checkpoint leave on the heap
# ----------------------------------------------------------------------
#: Traced heap after building a ~2,000-edge synthetic city, loading 2,000
#: objects and 16 queries, one tick and the genesis checkpoint: measured
#: 2.42-2.44 MiB on CPython 3.10-3.13 (3.96 MiB on 3.11 while every value
#: instance carried a dict and every edge a slot list and two endpoint
#: keys), plus 15 % headroom.
HEAP_BOUND_BYTES = int(2.445 * 1.15 * 2**20)


def _city_heap_bytes(data_dir, target_edges: int) -> int:
    """Live traced bytes of a durable city server after one tick + checkpoint."""
    tracemalloc.start()
    try:
        network = synthetic_city_network(target_edges, seed=5).network
        server = MonitoringServer(network, algorithm="ima")
        rng = random.Random(5)
        edges = sorted(network.edge_ids())
        for object_id in range(2_000):
            server.add_object(object_id, NetworkLocation(rng.choice(edges), rng.random()))
        for query_id in range(16):
            server.add_query(
                100_000 + query_id, NetworkLocation(rng.choice(edges), rng.random()), 4
            )
        server.tick()
        durable = DurableMonitoringServer(server, data_dir, sync=False)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
        durable.close()
    finally:
        tracemalloc.stop()
    return current


def test_city_heap_stays_under_its_bound(tmp_path):
    # A small warm-up run first, so lazy imports and one-off caches are
    # not charged to the measured city.
    _city_heap_bytes(tmp_path / "warm", target_edges=200)
    heap = _city_heap_bytes(tmp_path / "city", target_edges=2_000)
    assert heap < HEAP_BOUND_BYTES, f"{heap / 2**20:.2f} MiB"


# ----------------------------------------------------------------------
# the network is held once, and the importer builds its columns directly
# ----------------------------------------------------------------------
#: The frozen e2e city (``synthetic_city_network(20_000, 7)``, 20,241
#: edges) with its CSR adjacency: 5.06-5.13 MiB traced on CPython 3.10-3.13
#: as one column store, against 12.85 MiB (7.70 of node/edge objects plus
#: 5.15 of CSR list columns) while the two were separate; plus 15 %.
NETWORK_BOUND_BYTES = int(5.13 * 1.15 * 2**20)
#: The same import's traced peak: measured 11.2-11.4 MiB on CPython 3.10-3.13
#: (17.2 MiB while it built the object graph from a list of lines and a
#: tuple of parsed ways); plus 15 % headroom.
IMPORT_PEAK_BOUND_BYTES = int(11.4 * 1.15 * 2**20)


@pytest.fixture(scope="module")
def e2e_city_bytes():
    """``(import peak, frozen network live bytes, network)``, traced once."""
    text = synthetic_city_text(CitySpec.for_target_edges(20_000), 7)
    import_ways_text(synthetic_city_text(CitySpec.for_target_edges(200), 7))  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        network = import_ways_text(text, source="<synthetic>").network
        _, peak = tracemalloc.get_traced_memory()
        csr_snapshot(network)
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, live - before, network


def test_the_frozen_network_is_held_once_under_its_bound(e2e_city_bytes):
    _, live, network = e2e_city_bytes
    assert network.frozen and network.edge_count == 20_241
    assert live < NETWORK_BOUND_BYTES, f"{live / 2**20:.2f} MiB"


def test_the_import_peak_stays_under_its_bound(e2e_city_bytes):
    peak, _, _ = e2e_city_bytes
    assert peak < IMPORT_PEAK_BOUND_BYTES, f"{peak / 2**20:.2f} MiB"


def test_post_freeze_views_are_slotted_and_read_only(e2e_city_bytes):
    _, _, network = e2e_city_bytes
    edge = network.edge(next(network.edge_ids()))
    node = network.node(edge.start)
    _assert_no_dicts([edge, node, node.point])
    with pytest.raises(FrozenInstanceError):
        edge.weight = 1.0
    with pytest.raises(FrozenInstanceError):
        node.point = Point(0.0, 0.0)


# ----------------------------------------------------------------------
# GMA's sequence table is columns
# ----------------------------------------------------------------------
#: GMA's sequence table on the e2e ``fleet-verbs`` city
#: (``synthetic_city_text(CitySpec.for_target_edges(6_000), 7)``: 6,277
#: edges, 6,125 sequences): 0.17 MiB traced on CPython 3.11 as five
#: ``array('i')`` columns, against 2.01 MiB by this measurement (2.20 MiB
#: in a whole-process census) while it was one ``SequenceInfo`` and two
#: tuples per sequence in two dicts; plus 15 % headroom.
SEQUENCE_TABLE_BOUND_BYTES = int(0.17 * 1.15 * 2**20)


def test_the_sequence_table_stays_under_its_bound():
    network = import_ways_text(
        synthetic_city_text(CitySpec.for_target_edges(6_000), 7), source="<synthetic>"
    ).network
    network.freeze()
    SequenceTable(linear_network(4))  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        table = SequenceTable(network)
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (network.edge_count, len(table)) == (6_277, 6_125)
    assert live - before < SEQUENCE_TABLE_BOUND_BYTES, f"{(live - before) / 2**20:.2f} MiB"


# ----------------------------------------------------------------------
# the PMR quadtree is columns over the network's columns
# ----------------------------------------------------------------------
#: The spatial index on the e2e ``fleet-verbs`` city (6,277 edges, 4,473
#: quads, 12,863 leaf entries): 0.28 MiB traced on CPython 3.11 as four
#: float lists and three ``array('i')`` columns, against 2.74 MiB by this
#: measurement while it kept one ``Segment`` of two ``Point`` objects per
#: edge and one node object, ``Rect`` and edge-id list per quad; plus 15 %
#: headroom.
SPATIAL_INDEX_BOUND_BYTES = int(0.28 * 1.15 * 2**20)


@pytest.fixture(scope="module")
def fleet_verbs_city():
    network = import_ways_text(
        synthetic_city_text(CitySpec.for_target_edges(6_000), 7), source="<synthetic>"
    ).network
    network.freeze()
    return network


def test_the_spatial_index_stays_under_its_bound(fleet_verbs_city):
    PMRQuadtree(linear_network(4))  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        index = PMRQuadtree(fleet_verbs_city)
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fleet_verbs_city.edge_count == 6_277
    assert live - before < SPATIAL_INDEX_BOUND_BYTES, f"{(live - before) / 2**20:.2f} MiB"
    assert len(index._entries) >= fleet_verbs_city.edge_count


def test_the_spatial_index_holds_no_object_per_edge(fleet_verbs_city):
    """Flat columns of floats and ints: no Segment, Point or Rect per edge or quad."""
    index = PMRQuadtree(fleet_verbs_city)
    columns = _index_columns(index)
    assert columns
    for name, column in columns.items():
        if type(column) is list:
            assert {type(value) for value in column} == {float}, name
        else:
            assert type(column) is array and column.typecode == "i", name
    assert not any(
        isinstance(referent, (Segment, Point, Rect))
        for column in columns.values()
        for referent in gc.get_referents(column)
    )


# ----------------------------------------------------------------------
# the base is streamed a column at a time
# ----------------------------------------------------------------------
class _CountingSink:
    """A stream that keeps nothing: what it is given is not charged."""

    def __init__(self) -> None:
        self.bytes = 0

    def write(self, data) -> int:
        self.bytes += memoryview(data).nbytes
        return memoryview(data).nbytes


#: What writing the base of a ~20,000-edge city may allocate on top of its
#: output: measured 329 KiB on CPython 3.11 (one column and the list it is
#: built from); the network pickle it replaced peaked at ~9 MiB.
BASE_TRANSIENT_BOUND_BYTES = 2**20


def test_writing_the_base_allocates_one_column_not_a_copy():
    network = synthetic_city_network(20_000, seed=5).network
    server = MonitoringServer(network, algorithm="ima")
    gc.collect()
    sink = _CountingSink()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        server.write_static_state(sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.bytes > 0
    assert peak - before <= BASE_TRANSIENT_BOUND_BYTES, f"{(peak - before) / 1024:.0f} KiB"


# ----------------------------------------------------------------------
# per-edge object lists: their order is not part of any result
# ----------------------------------------------------------------------
def _exact(results):
    """Results with every float as its bytes: equal means byte-identical."""
    return {
        query_id: (
            tuple((object_id, distance.hex()) for object_id, distance in result.neighbors),
            result.radius.hex(),
        )
        for query_id, result in results.items()
    }


@pytest.mark.parametrize("algorithm", ["ima", "gma"])
def test_restoring_shuffled_object_columns_is_byte_identical(algorithm):
    network = city_network(300, seed=12)
    server = MonitoringServer(network, algorithm=algorithm)
    rng = random.Random(12)
    edges = sorted(network.edge_ids())
    for object_id in range(400):
        # Few edges, so most hold several objects and their order matters.
        server.add_object(object_id, NetworkLocation(rng.choice(edges[:60]), rng.random()))
    for query_id in range(12):
        server.add_query(10_000 + query_id, NetworkLocation(rng.choice(edges[:60]), 0.5), 6)
    server.tick()
    blob = server.snapshot_state()
    shuffled_blob = rewrite_object_columns(
        blob, lambda rows: random.Random(3).sample(rows, len(rows))
    )
    plain, shuffled = restore_server(blob), restore_server(shuffled_blob)
    assert list(shuffled.edge_table.object_ids()) != list(plain.edge_table.object_ids())
    for tick in range(6):
        moves = [
            (object_id, NetworkLocation(rng.choice(edges[:60]), rng.random()))
            for object_id in rng.sample(range(400), 80)
        ]
        weights = [(edge_id, 1.0 + rng.random() * 40.0) for edge_id in rng.sample(edges[:60], 5)]
        for each in (server, plain, shuffled):
            for object_id, location in moves:
                each.move_object(object_id, location)
            for edge_id, weight in weights:
                each.update_edge_weight(edge_id, weight)
            each.tick()
        expected = _exact(server.results())
        assert _exact(plain.results()) == expected, f"tick {tick}"
        assert _exact(shuffled.results()) == expected, f"tick {tick}"


# ----------------------------------------------------------------------
# edge_between answers from adjacency
# ----------------------------------------------------------------------
def _line(*edges) -> RoadNetwork:
    network = RoadNetwork()
    for node_id in range(4):
        network.add_node(node_id, x=float(node_id), y=0.0)
    for edge_id, start, end in edges:
        network.add_edge(edge_id, start, end, weight=1.0)
    return network


def test_edge_between_prefers_the_latest_forward_then_the_earliest_reverse():
    """The rule the endpoint map implemented, now read off adjacency order."""
    network = _line((10, 1, 0), (11, 0, 1), (12, 1, 0), (13, 0, 1), (14, 1, 2))
    assert network.edge_between(0, 1) == 13  # most recent edge running 0 -> 1
    assert network.edge_between(1, 0) == 12  # most recent edge running 1 -> 0
    assert network.edge_between(2, 1) == 14  # only a reverse edge: it counts
    assert network.edge_between(0, 2) is None
    assert network.edge_between(0, 0) is None
    assert network.edge_between(99, 0) is None


def test_edge_between_follows_the_rule_through_random_edits():
    rng = random.Random(17)
    network = _line()
    next_id = 0
    for _ in range(400):
        if network.edge_count and rng.random() < 0.4:
            network.remove_edge(rng.choice(sorted(network.edge_ids())))
        else:
            start, end = rng.sample(range(4), 2)
            network.add_edge(next_id, start, end, weight=1.0)
            next_id += 1
        for u in range(4):
            for v in range(4):
                forward = [e.edge_id for e in network.edges() if (e.start, e.end) == (u, v)]
                reverse = [e.edge_id for e in network.edges() if (e.start, e.end) == (v, u)]
                expected = forward[-1] if forward else reverse[0] if reverse else None
                assert network.edge_between(u, v) == expected


def test_edge_between_survives_removing_one_of_two_parallel_edges():
    """The endpoint map dropped a pair's key with the edge that held it."""
    network = _line((20, 0, 1), (21, 0, 1))
    network.remove_edge(21)
    assert network.edge_between(0, 1) == 20
    assert network.edge_between(1, 0) == 20
    network.remove_edge(20)
    assert network.edge_between(0, 1) is None

    network = _line((10, 1, 0), (11, 0, 1), (12, 1, 0), (13, 0, 1), (14, 1, 2))
    network.remove_edge(13)
    network.remove_edge(11)
    assert network.edge_between(0, 1) == 10  # no forward edge left: earliest reverse
    network.remove_edge(12)
    network.remove_edge(14)
    assert network.edge_between(1, 2) is None


# ----------------------------------------------------------------------
# CSR weight patches find their slots through indptr / adj_eid
# ----------------------------------------------------------------------
def _slot_weights(csr, edge_id):
    return [csr.adj_weight[slot] for slot, eid in enumerate(csr.adj_eid) if eid == edge_id]


def test_weight_patch_reaches_every_slot_of_parallel_and_one_way_edges():
    network = _line((30, 0, 1), (31, 0, 1), (32, 1, 2), (33, 2, 3))
    network.add_edge(34, 3, 2, weight=1.0, oneway=True)
    csr = csr_snapshot(network)
    for edge_id, weight in ((31, 7.0), (34, 9.0), (30, 2.0)):
        network.set_edge_weight(edge_id, weight)
    assert csr_snapshot(network) is csr
    assert _slot_weights(csr, 30) == [2.0, 2.0]
    assert _slot_weights(csr, 31) == [7.0, 7.0]
    assert _slot_weights(csr, 34) == [9.0]  # one traversable direction
    assert _slot_weights(csr, 32) == [1.0, 1.0]


def test_bulk_weight_refresh_rewrites_every_slot():
    network = city_network(50, seed=6)
    csr = csr_snapshot(network)
    adj_weight = csr.adj_weight
    column = network.weight_column()
    for position in range(len(column)):
        column[position] *= 1.5 + position % 3
    network.restore_weights(column, network.weight_version + 1)
    assert csr_snapshot(network) is csr and csr.adj_weight is adj_weight
    for edge in network.edges():
        assert csr.edge_weight[csr.index_of_edge(edge.edge_id)] == edge.weight
        assert set(_slot_weights(csr, edge.edge_id)) == {edge.weight}
