"""Snaps read from the network's columns equal the segment-storing tree's, bit for bit.

``tests/quadtree_oracle.py`` keeps the PMR quadtree that stored one
``Segment`` per edge.  :meth:`EdgeTable.snap_point` must return exactly its
single-point snap and :meth:`EdgeTable.snap_points` exactly its batch snap
— the same edge id and the same fraction, compared as IEEE bytes — on the
e2e cities and on generated networks, for points inside and outside the
bounding box, exactly on nodes and on edges.  The batch snap is checked
with numpy (leaf broadcasts) and without it (one search per point).
Coordinates no edge can be found for are a typed error, never an assert.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadtree_oracle
from quadtree_oracle import OracleQuadtree, leaves_of, oracle_snap, oracle_snap_bulk
from repro import MonitoringServer
from repro.exceptions import InvalidLocationError
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.realism import synthetic_city_network
from repro.spatial import pmr_quadtree
from repro.spatial.geometry import Point
from repro.utils import optional_numpy

#: The e2e cities at seed 7: ``city-rush``, ``query-storm`` / ``fleet-verbs``
#: (one city) and the ``--smoke`` size of the latter.
E2E_TARGET_EDGES = (20_000, 6_000, 600)


@pytest.fixture(scope="module")
def e2e_city():
    """``city(target_edges)`` -> ``(network, edge table, oracle)``, built once each."""
    built = {}

    def city(target_edges: int):
        if target_edges not in built:
            network = synthetic_city_network(target_edges, 7).network
            built[target_edges] = network, EdgeTable(network), OracleQuadtree.of_network(network)
        return built[target_edges]

    return city


@contextmanager
def _numpy(enabled: bool):
    """Let both trees see numpy or not; skip the numpy leg where it is absent."""
    if enabled:
        if optional_numpy() is None:
            pytest.skip("numpy is not installed")
        yield
        return
    with mock.patch.object(pmr_quadtree, "optional_numpy", lambda: None), \
            mock.patch.object(quadtree_oracle, "optional_numpy", lambda: None):
        yield


def _bits(locations):
    return [(location.edge_id, struct.pack("<d", location.fraction)) for location in locations]


def _check(table: EdgeTable, oracle: OracleQuadtree, points, numpy: bool) -> None:
    expected = [oracle_snap(oracle, point) for point in points]
    assert None not in expected
    assert _bits(table.snap_point(point) for point in points) == _bits(expected)
    with _numpy(numpy):
        assert _bits(table.snap_points(points)) == _bits(oracle_snap_bulk(oracle, points))


_unit = st.floats(0.0, 1.0)
_fraction = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), _unit)


@st.composite
def _points(draw, network: RoadNetwork, size: int):
    """Points inside and around the box, on nodes and on edges."""
    box = network.bounding_box()
    width, height = max(box.width, 1.0), max(box.height, 1.0)
    node_ids = sorted(network.node_ids())
    edge_ids = sorted(network.edge_ids())

    def anywhere():
        return st.builds(
            Point,
            st.floats(box.min_x - width, box.max_x + width),
            st.floats(box.min_y - height, box.max_y + height),
        )

    def on_node():
        return st.sampled_from(node_ids).map(lambda node_id: network.node(node_id).point)

    def on_edge():
        return st.builds(
            lambda edge_id, fraction: network.location_point(NetworkLocation(edge_id, fraction)),
            st.sampled_from(edge_ids),
            _fraction,
        )

    return draw(st.lists(st.one_of(anywhere(), on_node(), on_edge()), min_size=1, max_size=size))


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "pure-python"])
@pytest.mark.parametrize("target_edges", E2E_TARGET_EDGES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_e2e_city_snaps_are_bit_identical_to_the_oracle(e2e_city, target_edges, numpy, data):
    network, table, oracle = e2e_city(target_edges)
    _check(table, oracle, data.draw(_points(network, 120)), numpy)


def test_e2e_city_trees_have_the_oracle_leaves(e2e_city):
    for target_edges in E2E_TARGET_EDGES:
        _, table, oracle = e2e_city(target_edges)
        assert leaves_of(table.spatial_index) == oracle.leaves()


# Lattice coordinates make coincident nodes, zero-length, collinear and
# axis-parallel edges, and equidistant ties common.
_coordinate = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 5.0, 10.0]), st.floats(-10.0, 20.0))


@st.composite
def _networks(draw):
    network = RoadNetwork()
    nodes = draw(st.lists(st.tuples(_coordinate, _coordinate), min_size=2, max_size=40))
    node_ids = draw(st.permutations(range(0, 3 * len(nodes), 3)))
    for node_id, (x, y) in zip(node_ids, nodes):
        network.add_node(node_id, x, y)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(node_ids), st.sampled_from(node_ids)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            min_size=1,
            max_size=120,
        )
    )
    edge_ids = draw(st.permutations(range(7, 7 + 5 * len(pairs), 5)))
    for edge_id, (start, end) in zip(edge_ids, pairs):
        network.add_edge(edge_id, start, end, 1.0)
    return network


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "pure-python"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_network_snaps_are_bit_identical_to_the_oracle(numpy, data):
    network = data.draw(_networks())
    table = EdgeTable(network)
    oracle = OracleQuadtree.of_network(network)
    assert leaves_of(table.spatial_index) == oracle.leaves()
    _check(table, oracle, data.draw(_points(network, 60)), numpy)


# ----------------------------------------------------------------------
# coordinates that cannot be snapped are a typed error
# ----------------------------------------------------------------------
_UNSNAPPABLE = [
    (float("nan"), 1.0),
    (1.0, float("nan")),
    (float("inf"), 5.0),
    (5.0, float("-inf")),
    (1e308, 1e308),  # finite, but every distance overflows
    (10**400, 0.0),  # no float holds it
    ("12.5", 0.0),  # not a number
]


def _assert_nothing_buffered(server: MonitoringServer) -> None:
    assert server.object_ids() == set() and server.query_ids() == set()
    pending = server.take_pending_batch()
    assert not pending.object_updates and not pending.query_updates


@pytest.fixture(scope="module")
def small_city():
    return synthetic_city_network(600, 7).network


@pytest.mark.parametrize("x, y", _UNSNAPPABLE)
def test_a_single_snap_of_unsnappable_coordinates_is_an_invalid_location(small_city, x, y):
    server = MonitoringServer(small_city, algorithm="IMA")
    with pytest.raises(InvalidLocationError):
        server.snap(x, y)
    with pytest.raises(InvalidLocationError):
        server.add_object_at(1, x, y)
    with pytest.raises(InvalidLocationError):
        server.add_query_at(2, x, y, 3)
    _assert_nothing_buffered(server)


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "pure-python"])
@pytest.mark.parametrize("x, y", _UNSNAPPABLE)
def test_a_bulk_snap_with_unsnappable_coordinates_fails_whole(small_city, numpy, x, y):
    server = MonitoringServer(small_city, algorithm="IMA")
    box = small_city.bounding_box()
    batch = [(i, box.min_x + i, box.min_y + i) for i in range(6)]
    batch.insert(3, (99, x, y))
    with _numpy(numpy):
        with pytest.raises(InvalidLocationError):
            server.snap_many([(bx, by) for _, bx, by in batch])
        with pytest.raises(InvalidLocationError):
            server.add_objects_at(batch)
    _assert_nothing_buffered(server)
