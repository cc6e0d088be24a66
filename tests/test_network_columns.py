"""The network is held once, as columns: weights, views, pickles.

A frozen :class:`~repro.network.graph.RoadNetwork` keeps its nodes and
edges in its column store (:class:`~repro.network.csr.CSRGraph`) and
nothing else, so the tests here pin what that store has to get right:

* a weight column handed to ``restore_weights`` (a checkpoint's dynamic
  section, a shard worker's init) is checked whole, by the rule
  ``add_edge`` applies, before anything is written; a snapshot carrying a
  bad weight is a :class:`RecoveryError` naming the edge;
* ``node()`` / ``edge()`` hand out read-only values built from the
  columns, and ``set_edge_weight`` writes the one weight column and the
  edge's adjacency entries;
* ``from_columns`` refuses what ``add_node`` / ``add_edge`` refuse;
* shard checkpoints an earlier release wrote, whose monitor pickles carry
  that release's node/edge dicts (``tests/data/rpckpt05-2w``), still
  recover and continue to that release's results.
"""

from __future__ import annotations

import json
import math
import pathlib
import pickle
import random
import shutil
import struct
from dataclasses import FrozenInstanceError

import pytest

from repro import DurableMonitoringServer, MonitoringServer, city_network, decode_batch
from repro.core.server import _DYNAMIC_HEADER, restore_server
from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    InvalidLocationError,
    InvalidWeightError,
    NodeNotFoundError,
    RecoveryError,
)
from repro.network.csr import csr_snapshot
from repro.network.graph import CLOSED_EDGE_WEIGHT, NetworkLocation, RoadNetwork
from repro.service.eventlog import read_event_log

FIXTURE = pathlib.Path(__file__).parent / "data" / "rpckpt05-2w"
BAD_WEIGHTS = [math.nan, math.inf, -math.inf, 0.0, -2.0]
BAD_IDS = ["nan", "inf", "-inf", "zero", "negative"]


def _server() -> MonitoringServer:
    network = city_network(30, seed=1)
    server = MonitoringServer(network, algorithm="ima")
    rng = random.Random(1)
    edges = sorted(network.edge_ids())
    for object_id in range(20):
        server.add_object(object_id, NetworkLocation(rng.choice(edges), rng.random()))
    server.add_query(100, NetworkLocation(edges[0], 0.5), 3)
    server.tick()
    return server


# ----------------------------------------------------------------------
# a weight column is checked whole before it is written
# ----------------------------------------------------------------------
@pytest.mark.parametrize("weight", BAD_WEIGHTS, ids=BAD_IDS)
def test_restore_weights_refuses_a_bad_weight_and_writes_nothing(weight):
    network = city_network(30, seed=1)
    csr = csr_snapshot(network)
    before = list(csr.edge_weight), list(csr.adj_weight), network.weight_version
    column = network.weight_column()
    column[1] = weight
    with pytest.raises(InvalidWeightError, match=f"edge {csr.edge_ids[1]}"):
        network.restore_weights(column, network.weight_version + 1)
    assert (list(csr.edge_weight), list(csr.adj_weight), network.weight_version) == before


def test_restore_weights_accepts_the_closure_weight():
    network = city_network(30, seed=1)
    column = network.weight_column()
    column[0] = CLOSED_EDGE_WEIGHT
    network.restore_weights(column, 7)
    edge_id = next(network.edge_ids())
    assert network.weight_of(edge_id) == CLOSED_EDGE_WEIGHT == network.edge(edge_id).weight
    assert network.weight_version == 7


@pytest.mark.parametrize("weight", BAD_WEIGHTS, ids=BAD_IDS)
def test_a_snapshot_with_a_bad_weight_is_a_recovery_error_naming_the_edge(weight):
    server = _server()
    blob = bytearray(server.snapshot_state())
    static = bytearray()
    server.write_static_state(_Sink(static))
    # The dynamic section starts with its header, then the weight column.
    first_weight = len(static) + _DYNAMIC_HEADER.size
    edge_id = list(server.network.edge_ids())[1]
    struct.pack_into("<d", blob, first_weight + 8, weight)
    with pytest.raises(RecoveryError, match=f"edge {edge_id}"):
        restore_server(bytes(blob))
    dynamic = bytes(blob[len(static):])
    with pytest.raises(RecoveryError, match=f"edge {edge_id}"):
        restore_server(dynamic, bytes(static))


class _Sink:
    def __init__(self, into: bytearray) -> None:
        self._into = into

    def write(self, data) -> int:
        self._into.extend(data)
        return len(data)


# ----------------------------------------------------------------------
# read-only views and the one weight column
# ----------------------------------------------------------------------
def test_views_are_read_only_values_of_the_columns():
    network = city_network(30, seed=2)
    csr = csr_snapshot(network)
    edge_id = csr.edge_ids[3]
    edge = network.edge(edge_id)
    assert not hasattr(edge, "__dict__")
    with pytest.raises(FrozenInstanceError):
        edge.weight = 1.0
    node = network.node(csr.node_ids[0])
    with pytest.raises(FrozenInstanceError):
        node.point = None
    network.set_edge_weight(edge_id, 42.0)
    assert edge.weight != 42.0  # a value taken before the write
    assert network.edge(edge_id).weight == 42.0 == network.weight_of(edge_id)
    assert csr.edge_weight[3] == 42.0
    assert {csr.adj_weight[slot] for slot, eid in enumerate(csr.adj_eid) if eid == edge_id} == {
        42.0
    }


def test_endpoints_and_weights_read_from_the_columns_match_the_views():
    network = city_network(60, seed=3)
    for edge in network.edges():
        assert network.endpoints_of(edge.edge_id) == edge.endpoints()
        assert network.weight_of(edge.edge_id) == edge.weight


def test_freezing_keeps_each_nodes_edge_order_through_removals():
    network = RoadNetwork()
    for node_id in range(4):
        network.add_node(node_id, float(node_id), 0.0)
    for edge_id, (start, end) in enumerate([(0, 1), (1, 2), (2, 3), (1, 3), (0, 2)]):
        network.add_edge(edge_id, start, end, weight=1.0 + edge_id)
    network.remove_edge(1)
    network.add_edge(1, 2, 1, weight=9.0)
    editable = {node_id: network.incident_edges(node_id) for node_id in range(4)}
    network.freeze()
    assert {node_id: network.incident_edges(node_id) for node_id in range(4)} == editable
    assert network.edge_between(1, 2) == 1 and network.weight_of(1) == 9.0


# ----------------------------------------------------------------------
# from_columns refuses what add_node / add_edge refuse
# ----------------------------------------------------------------------
def _columns(**changes):
    columns = dict(
        node_ids=[1, 2, 3],
        xs=[0.0, 1.0, 2.0],
        ys=[0.0, 0.0, 0.0],
        edge_ids=[7, 8],
        starts=[1, 2],
        ends=[2, 3],
        base_weights=[1.0, 1.0],
        oneway=[0, 1],
    )
    columns.update(changes)
    return columns


@pytest.mark.parametrize(
    "changes, error",
    [
        (dict(node_ids=[1, 2, 1]), DuplicateNodeError),
        (dict(edge_ids=[7, 7]), DuplicateEdgeError),
        (dict(starts=[1, 9]), NodeNotFoundError),
        (dict(ends=[2, 9]), NodeNotFoundError),
        (dict(ends=[2, 2]), InvalidLocationError),
        (dict(base_weights=[1.0, math.nan]), InvalidWeightError),
        (dict(base_weights=[1.0, 0.0]), InvalidWeightError),
    ],
    ids=[
        "duplicate-node", "duplicate-edge", "unknown-start", "unknown-end",
        "self-loop", "nan-weight", "zero-weight",
    ],
)
def test_from_columns_refuses_what_add_edge_refuses(changes, error):
    with pytest.raises(error):
        RoadNetwork.from_columns(**_columns(**changes))


def test_from_columns_builds_what_add_node_and_add_edge_build():
    built = RoadNetwork.from_columns(**_columns())
    assert built.frozen and built.topology_version == 5 and built.weight_version == 0
    edited = RoadNetwork()
    for node_id, x in ((1, 0.0), (2, 1.0), (3, 2.0)):
        edited.add_node(node_id, x, 0.0)
    edited.add_edge(7, 1, 2, 1.0)
    edited.add_edge(8, 2, 3, 1.0, oneway=True)
    edited.freeze()
    assert list(built.edges()) == list(edited.edges())
    assert list(built.nodes()) == list(edited.nodes())
    a, b = csr_snapshot(built), csr_snapshot(edited)
    assert (a.indptr, a.adj_node, a.adj_eid, a.inc_indptr, a.inc_edge) == (
        b.indptr, b.adj_node, b.adj_eid, b.inc_indptr, b.inc_edge
    )


# ----------------------------------------------------------------------
# pickles: the columns, and the node/edge dicts of an earlier release
# ----------------------------------------------------------------------
def test_a_pickled_network_keeps_weights_base_weights_and_order():
    network = city_network(50, seed=4)
    edge_id = next(network.edge_ids())
    network.set_edge_weight(edge_id, 77.0)
    csr_snapshot(network)
    replica = pickle.loads(pickle.dumps(network))
    assert list(replica.edges()) == list(network.edges())
    assert list(replica.nodes()) == list(network.nodes())
    assert (replica.topology_version, replica.weight_version) == (
        network.topology_version, network.weight_version
    )
    assert pickle.dumps(replica) == pickle.dumps(network)


def _results_as_json(results) -> dict:
    return {
        str(query_id): [[object_id, distance.hex()] for object_id, distance in result.neighbors]
        for query_id, result in sorted(results.items())
    }


@pytest.mark.parametrize("layout", ["replica", "graph"])
def test_shard_checkpoints_of_an_earlier_release_recover_and_continue(tmp_path, layout):
    fixture = FIXTURE / layout
    data_dir = tmp_path / "data"
    shutil.copytree(fixture / "data", data_dir)
    # The shard monitors in the checkpoint pickled that release's node/edge dicts.
    assert b"_nodes" in (data_dir / "checkpoints" / "ckpt-0000000003.bin").read_bytes()
    expected = json.loads((fixture / "expected.json").read_text())
    recovered = DurableMonitoringServer.recover(data_dir, checkpoint_every=None)
    try:
        assert recovered.recovered_ticks == 2 and recovered.current_timestamp == 5
        for payload in read_event_log(fixture / "continuation.log"):
            recovered.server.apply_updates(decode_batch(payload))
            recovered.tick()
            assert _results_as_json(recovered.results()) == expected[
                str(recovered.current_timestamp)
            ]
        assert recovered.current_timestamp == 8
    finally:
        recovered.close()
