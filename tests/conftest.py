"""Shared fixtures for the test suite.

The fixtures provide small, deterministic networks and populated edge tables
that the unit and integration tests reuse.  Everything is seeded so failures
are reproducible.
"""

from __future__ import annotations

import random

import pytest

from repro.network.builders import city_network, grid_network, linear_network
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "native_fallback: run with the compiled native backend disabled "
        "(see tests/kernel_legs.py)",
    )


@pytest.fixture(autouse=True)
def _native_fallback_leg(request, monkeypatch):
    """Disable the compiled backend for tests marked ``native_fallback``.

    The load probes are reset on the way in and out, so the leg serves
    every ``kernel="native"`` batch through the csr fallback, and the next
    test re-probes under the restored environment.  Forked shard workers
    inherit both.
    """
    if request.node.get_closest_marker("native_fallback") is None:
        yield
        return
    from repro.network.native import DISABLE_ENV, reset_native_library_cache

    monkeypatch.setenv(DISABLE_ENV, "1")
    reset_native_library_cache()
    try:
        yield
    finally:
        reset_native_library_cache()


@pytest.fixture
def index_builds(monkeypatch):
    """Every edge table whose spatial index is built, in build order."""
    builds = []
    rebuild = EdgeTable.rebuild_spatial_index

    def counted(self):
        builds.append(self)
        return rebuild(self)

    monkeypatch.setattr(EdgeTable, "rebuild_spatial_index", counted)
    return builds


@pytest.fixture
def line_network() -> RoadNetwork:
    """A 5-node path graph: 0 -100- 1 -100- 2 -100- 3 -100- 4."""
    return linear_network(5, spacing=100.0)


@pytest.fixture
def small_grid() -> RoadNetwork:
    """A 4x4 grid with unit-free 100-length edges, no perturbation."""
    return grid_network(4, 4, spacing=100.0)


@pytest.fixture
def small_city() -> RoadNetwork:
    """A ~200-edge synthetic city with degree-2 shape points (seeded)."""
    return city_network(200, seed=7)


@pytest.fixture
def populated_city(small_city):
    """The small city plus 80 objects placed deterministically on its edges.

    Returns ``(network, edge_table, object_locations)``.
    """
    rng = random.Random(99)
    edge_table = EdgeTable(small_city)
    edge_ids = list(small_city.edge_ids())
    locations = {}
    for object_id in range(80):
        location = NetworkLocation(rng.choice(edge_ids), rng.random())
        edge_table.insert_object(object_id, location)
        locations[object_id] = location
    return small_city, edge_table, locations


@pytest.fixture
def populated_line(line_network):
    """The path graph with three objects at known positions.

    Objects: 0 at edge 0 fraction 0.5 (x=50), 1 at edge 2 fraction 0.25
    (x=225), 2 at edge 3 fraction 0.9 (x=390).
    Returns ``(network, edge_table)``.
    """
    edge_table = EdgeTable(line_network)
    edge_table.insert_object(0, NetworkLocation(0, 0.5))
    edge_table.insert_object(1, NetworkLocation(2, 0.25))
    edge_table.insert_object(2, NetworkLocation(3, 0.9))
    return line_network, edge_table


def random_location(network: RoadNetwork, rng: random.Random) -> NetworkLocation:
    """Helper used by tests that need arbitrary network positions."""
    edge_ids = list(network.edge_ids())
    return NetworkLocation(rng.choice(edge_ids), rng.random())
