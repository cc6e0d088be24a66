"""A server's road network has a fixed topology.

The paper monitors k-NN queries over a graph whose edge weights change and
whose nodes and edges do not; a road closure is a weight
(``CLOSED_EDGE_WEIGHT``).  Every server freezes its network, so an edit of
the topology under a live server raises :class:`TopologyFrozenError` and
changes nothing, whatever the server's shape.  To change the graph, edit
``network.copy()`` and build a new server over it.

The scenario is a k = 4 query in the middle of edge 10 of a 6 x 6 grid,
with an object in the middle of every third edge.  Removing edge 8 under a
live in-process IMA or GMA server once left them answering with a distance
through the removed edge.
"""

from __future__ import annotations

import pickle

import pytest

from repro import MonitoringServer, grid_network
from repro.exceptions import NetworkError, TopologyFrozenError
from repro.network.distance import brute_force_knn
from repro.network.graph import NetworkLocation, RoadNetwork

QUERY_ID = 1_000
#: One object in the middle of every third edge, keyed by its edge id.
OBJECT_EDGES = range(0, 60, 3)
QUERY_LOCATION = NetworkLocation(10, 0.5)
K = 4

#: (algorithm, workers, partitioning): in-process, then 2-worker fleets.
SHAPES = [
    ("ovh", 1, "replica"),
    ("ima", 1, "replica"),
    ("gma", 1, "replica"),
    ("ima", 2, "replica"),
    ("ima", 2, "graph"),
]


def _shape_id(shape):
    algorithm, workers, partitioning = shape
    return algorithm if workers == 1 else f"{algorithm}-{workers}w-{partitioning}"


def _populated_server(network, algorithm="ovh", workers=1, partitioning="replica"):
    server = MonitoringServer(
        network, algorithm=algorithm, workers=workers, partitioning=partitioning
    )
    for edge_id in OBJECT_EDGES:
        server.add_object(edge_id, NetworkLocation(edge_id, 0.5))
    server.add_query(QUERY_ID, QUERY_LOCATION, k=K)
    server.tick()
    return server


def _shape_of(network):
    return (
        network.topology_version,
        [(node.node_id, node.x, node.y) for node in network.nodes()],
        [(e.edge_id, e.start, e.end, e.weight, e.oneway) for e in network.edges()],
    )


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_topology_edits_under_a_live_server_raise_and_change_nothing(shape):
    network = grid_network(6, 6)
    with _populated_server(network, *shape) as server:
        before = server.result_of(QUERY_ID)
        assert list(before.neighbors) == brute_force_knn(
            network, server.edge_table, QUERY_LOCATION, K
        )
        shape_before = _shape_of(network)
        edge = network.edge(8)
        edits = [
            lambda: network.remove_edge(8),
            lambda: network.add_node(99, 5.0, 5.0),
            lambda: network.add_edge(999, edge.start, edge.end, 1.0),
        ]
        for edit in edits:
            with pytest.raises(TopologyFrozenError):
                edit()
        assert _shape_of(network) == shape_before
        server.tick()
        after = server.result_of(QUERY_ID)
        assert after.neighbors == before.neighbors
        assert after.radius == before.radius


def test_the_error_names_the_edit_and_is_a_network_error():
    network = grid_network(3, 3)
    network.freeze()
    network.freeze()  # idempotent
    with pytest.raises(TopologyFrozenError, match="remove edge 2") as excinfo:
        network.remove_edge(2)
    assert isinstance(excinfo.value, NetworkError)
    assert excinfo.value.operation == "remove edge 2"
    # Checked before anything else: an unknown id is still a frozen error.
    with pytest.raises(TopologyFrozenError):
        network.remove_edge(12345)
    # Weights stay mutable: a closure is a weight.
    network.set_edge_weight(2, 1e6)
    assert network.edge(2).weight == 1e6


def test_a_network_is_editable_until_something_holds_it():
    network = grid_network(3, 3)
    network.add_node(99, 500.0, 500.0)
    network.add_edge(999, 0, 99)
    network.remove_edge(999)
    MonitoringServer(network, algorithm="ima")
    with pytest.raises(TopologyFrozenError):
        network.add_edge(999, 0, 99)


def test_copies_and_pickles_of_a_frozen_network_are_editable():
    network = grid_network(3, 3)
    MonitoringServer(network, algorithm="ima")
    for replica in (network.copy(), pickle.loads(pickle.dumps(network))):
        assert isinstance(replica, RoadNetwork)
        replica.remove_edge(2)
        assert not replica.has_edge(2)
    assert network.has_edge(2)
    with pytest.raises(TopologyFrozenError):
        network.remove_edge(2)


def test_a_new_server_over_an_edited_copy_is_the_supported_way():
    """Removing edge 8 from a copy and serving it anew gives OVH's answer."""
    network = grid_network(6, 6)
    server = _populated_server(network, "ima")
    edited = network.copy()
    edited.remove_edge(8)
    answers = {}
    for algorithm in ("ovh", "ima", "gma"):
        fresh = _populated_server(edited, algorithm)
        answers[algorithm] = fresh.result_of(QUERY_ID).neighbors
    assert answers["ima"] == answers["gma"] == answers["ovh"]
    assert list(answers["ovh"]) == brute_force_knn(edited, fresh.edge_table, QUERY_LOCATION, K)
    assert answers["ovh"] != server.result_of(QUERY_ID).neighbors
    assert network.has_edge(8)
