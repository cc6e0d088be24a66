"""GMA's sequence table is columns derived from the frozen network, never stored.

The decomposition into sequences is a function of the topology, so
:class:`~repro.network.sequences.SequenceTable` keeps it as ``array``
columns over the network's dense positions and pickles as a reference to
its network.  Pinned here:

* the columns name the same sequences, with the same ids, as the
  dict-based walk earlier releases ran (kept below as the oracle), over
  cities, grids, chains of degree-2 nodes, pure cycles, stars, and
  parallel and one-way edges; checkpointed GMA state names sequences by id;
* a pickled table holds no :class:`SequenceInfo` and loads to an equal
  table, and no GMA dynamic section holds one, on any server shape;
* a table an earlier release pickled whole loads by rebuilding, and one
  whose pickled map disagrees with its network is a ``RecoveryError``;
* GMA data directories that release wrote (``tests/data/rpckpt05-gma``)
  recover and continue to its results.
"""

from __future__ import annotations

import io
import json
import pathlib
import pickle
import pickletools
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DurableMonitoringServer, city_network, decode_batch
from repro.core.server import _DYNAMIC_HEADER, restore_server
from repro.core.sharding import ShardedMonitoringServer
from repro.exceptions import EdgeNotFoundError, RecoveryError
from repro.network.builders import grid_network, linear_network, star_network
from repro.network.graph import RoadNetwork
from repro.network.sequences import SequenceTable
from repro.service.eventlog import read_event_log
from repro.service.faults import build_scenario_server
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

FIXTURE = pathlib.Path(__file__).parent / "data" / "rpckpt05-gma"
SCENARIO, SEED, EDGES = "mixed-fleet", 8, 120


# ----------------------------------------------------------------------
# the oracle: the dict-based walk of earlier releases
# ----------------------------------------------------------------------
def _reference_sequences(network: RoadNetwork) -> list:
    """``[(sequence_id, start, end, edge_ids, node_ids)]`` as earlier releases walked them."""
    visited = set()
    sequences = []

    def walk(start_node, first_edge, cycle):
        edge_ids, node_ids = [], [start_node]
        current_node, current_edge = start_node, first_edge
        while True:
            visited.add(current_edge)
            edge_ids.append(current_edge)
            start, end = network.endpoints_of(current_edge)
            current_node = end if current_node == start else start
            node_ids.append(current_node)
            if cycle and current_node == start_node:
                break
            if network.degree(current_node) != 2:
                break
            next_edges = [e for e in network.incident_edges(current_node) if e != current_edge]
            if not next_edges or next_edges[0] in visited:
                break
            current_edge = next_edges[0]
        sequences.append(
            (len(sequences), start_node, current_node, tuple(edge_ids), tuple(node_ids))
        )

    for node_id in [n for n in network.node_ids() if network.degree(n) != 2]:
        for edge_id in network.incident_edges(node_id):
            if edge_id not in visited:
                walk(node_id, edge_id, cycle=False)
    for edge_id in network.edge_ids():
        if edge_id not in visited:
            walk(min(network.endpoints_of(edge_id)), edge_id, cycle=True)
    return sequences


def _as_tuples(table: SequenceTable) -> list:
    return [
        (info.sequence_id, info.start_node, info.end_node, info.edge_ids, info.node_ids)
        for info in table
    ]


def _random_network(seed: int) -> RoadNetwork:
    """Intersections joined by chains of degree-2 nodes, plus pure cycles.

    Node ids are shuffled and sparse, so id order is not index order; some
    streets are one-way and some node pairs get a second, parallel street.
    """
    rng = random.Random(seed)
    ids = rng.sample(range(10 * 400), 400)
    network = RoadNetwork()
    next_node, next_edge = iter(ids), iter(range(10_000))

    def node():
        node_id = next(next_node)
        network.add_node(node_id, rng.random() * 100, rng.random() * 100)
        return node_id

    def street(first, last, shape_points):
        previous = first
        for _ in range(shape_points):
            current = node()
            network.add_edge(next(next_edge), previous, current, oneway=rng.random() < 0.2)
            previous = current
        network.add_edge(next(next_edge), previous, last, oneway=rng.random() < 0.2)

    hubs = [node() for _ in range(rng.randint(1, 8))]
    for _ in range(rng.randint(0, 14)):
        first, last = rng.choice(hubs), rng.choice(hubs)
        shape_points = rng.randint(0 if first != last else 1, 4)
        street(first, last, shape_points)
        if rng.random() < 0.2 and first != last:
            street(first, last, 0)
    for _ in range(rng.randint(0, 2)):
        ring = node()
        street(ring, ring, rng.randint(1, 5))
    return network


def _pure_cycle() -> RoadNetwork:
    network = RoadNetwork()
    for node_id in (7, 3, 9, 5):
        network.add_node(node_id, float(node_id), 0.0)
    for edge_id, (start, end) in enumerate([(7, 3), (3, 9), (9, 5), (5, 7)]):
        network.add_edge(edge_id, start, end)
    return network


NAMED = {
    "city": lambda: city_network(400, seed=3),
    "grid": lambda: grid_network(4, 6),
    "chain": lambda: linear_network(9),
    "star": lambda: star_network(5, branch_length=3),
    "pure-cycle": _pure_cycle,
}


def _assert_matches_the_oracle(network: RoadNetwork) -> None:
    expected = _reference_sequences(network)  # on the editable network
    table = SequenceTable(network)
    assert network.frozen
    assert _as_tuples(table) == expected
    for sequence_id, start, end, edge_ids, _ in expected:
        assert table.endpoints(sequence_id) == (start, end)
        for edge_id in edge_ids:
            assert table.sequence_id_of_edge(edge_id) == sequence_id
    for node_id in network.node_ids():
        assert [info.sequence_id for info in table.sequences_at_node(node_id)] == [
            s for s, start, end, _, _ in expected if node_id in (start, end)
        ]
    assert table.is_partition()


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_networks_match_the_oracle(name):
    _assert_matches_the_oracle(NAMED[name]())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_generated_networks_match_the_oracle(seed):
    _assert_matches_the_oracle(_random_network(seed))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), edges=st.sampled_from([60, 300]))
def test_generated_cities_match_the_oracle(seed, edges):
    _assert_matches_the_oracle(city_network(edges, seed=seed))


def test_lookups_refuse_what_the_table_does_not_hold():
    table = SequenceTable(linear_network(4))
    with pytest.raises(EdgeNotFoundError):
        table.sequence_id_of_edge(99)
    assert table.sequences_at_node(99) == []
    for sequence_id in (-1, len(table)):
        with pytest.raises(KeyError):
            table.sequence(sequence_id)


# ----------------------------------------------------------------------
# never stored
# ----------------------------------------------------------------------
def _names(pickle_bytes: bytes) -> set:
    """Every string a pickle holds, nested pickles (a fleet's shard monitors) expanded.

    A global's module and class names are among them, memoized or not.
    """
    found = set()
    for opcode, argument, _ in pickletools.genops(pickle_bytes):
        if opcode.name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8", "UNICODE"):
            found.add(argument)
        elif opcode.name == "GLOBAL":
            found.update(argument.split())
        elif opcode.name in ("SHORT_BINBYTES", "BINBYTES", "BINBYTES8") and (
            bytes(argument[:1]) == b"\x80"
        ):
            found |= _names(bytes(argument))
    return found


def test_a_pickled_table_is_its_network_and_loads_to_an_equal_table():
    network = city_network(300, seed=5)
    table = SequenceTable(network)
    blob = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
    assert "SequenceInfo" not in _names(blob)
    loaded = pickle.loads(blob)
    assert _as_tuples(loaded) == _as_tuples(table)
    # Next to its network, the table costs a few bytes.
    alone = len(pickle.dumps(network, protocol=pickle.HIGHEST_PROTOCOL))
    both = len(pickle.dumps((network, table), protocol=pickle.HIGHEST_PROTOCOL))
    assert both - alone < 100


def _gma_server(workers=None, partitioning=None):
    template = build_scenario_server(SCENARIO, SEED, EDGES, "GMA", None)
    if workers is None:
        return template
    server = ShardedMonitoringServer(
        template.network, algorithm="GMA", edge_table=template.edge_table,
        workers=workers, partitioning=partitioning,
    )
    engine = ScenarioEngine(
        city_network(EDGES, seed=SEED + 1), resolve_scenario(SCENARIO), seed=SEED
    )
    for query_id, (location, spec) in engine.initial_queries().items():
        server.add_query(query_id, location, spec)
    return server


@pytest.mark.parametrize(
    "workers, partitioning", [(None, None), (2, "replica"), (2, "graph")],
    ids=["in-process", "replica-2w", "graph-2w"],
)
def test_no_gma_dynamic_section_holds_a_sequence_info(workers, partitioning):
    engine = ScenarioEngine(
        city_network(EDGES, seed=SEED + 1), resolve_scenario(SCENARIO), seed=SEED
    )
    with _gma_server(workers, partitioning) as server:
        for timestamp in range(3):
            server.apply_updates(engine.batch(timestamp))
            server.tick()
        dynamic = server.snapshot_state(static=False)
        columns = io.BytesIO()
        server.edge_table.write_object_columns(columns)
        start = _DYNAMIC_HEADER.size + 8 * server.network.edge_count + len(columns.getvalue())
    names = _names(dynamic[start:])
    assert "SequenceTable" in names and "SequenceInfo" not in names


# ----------------------------------------------------------------------
# tables an earlier release pickled whole
# ----------------------------------------------------------------------
def _pickled_whole(table: SequenceTable, swap: bool = False) -> SequenceTable:
    """A table carrying the dicts an earlier release pickled, by value.

    Pickled while ``SequenceTable.__reduce__`` is removed, it writes that
    release's bytes.  With *swap*, two sequences trade ids while the edges
    still name the old ones.
    """
    sequences = {info.sequence_id: info for info in table}
    if swap:
        sequences[0], sequences[1] = sequences[1], sequences[0]
    whole = SequenceTable.__new__(SequenceTable)
    vars(whole).update(
        _network=table._network,
        _sequences=sequences,
        _edge_to_sequence={
            edge_id: info.sequence_id for info in table for edge_id in info.edge_ids
        },
    )
    return whole


@pytest.mark.parametrize("swap", [False, True], ids=["agrees", "disagrees"])
def test_a_table_pickled_whole_loads_only_if_it_agrees_with_its_network(monkeypatch, swap):
    with _gma_server() as server:
        server.tick()
        current = server.snapshot_state(static=False)
        static = io.BytesIO()
        server.write_static_state(static)
        monitor = server.monitor
        table = monitor._sequences
        monitor._sequences = _pickled_whole(table, swap)
        with monkeypatch.context() as patch:
            patch.delattr(SequenceTable, "__reduce__")
            earlier = server.snapshot_state(static=False)
            shard_blob = pickle.dumps(monitor, protocol=pickle.HIGHEST_PROTOCOL)
        monitor._sequences = table
    assert b"_edge_to_sequence" in earlier and b"SequenceInfo" in earlier
    if swap:
        with pytest.raises(RecoveryError, match="sequence table"):
            restore_server(earlier, static.getvalue())
        with pytest.raises(RecoveryError, match="sequence table"):
            pickle.loads(shard_blob)
        return
    restored = restore_server(earlier, static.getvalue())
    assert restored.snapshot_state(static=False) == current
    assert _as_tuples(pickle.loads(shard_blob)._sequences) == _as_tuples(table)


def _results_as_json(results) -> dict:
    return {
        str(query_id): [[object_id, distance.hex()] for object_id, distance in result.neighbors]
        for query_id, result in sorted(results.items())
    }


@pytest.mark.parametrize("layout", ["in-process", "graph"])
def test_gma_directories_of_an_earlier_release_recover_and_continue(tmp_path, layout):
    fixture = FIXTURE / layout
    data_dir = tmp_path / "data"
    shutil.copytree(fixture / "data", data_dir)
    # That release pickled the sequence table whole into every checkpoint.
    assert b"_edge_to_sequence" in (data_dir / "checkpoints" / "ckpt-0000000003.bin").read_bytes()
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
        if layout == "in-process":
            # The rest of the state is that release's, byte for byte: its
            # final section, loaded and taken again, is this one.
            static = io.BytesIO()
            recovered.server.write_static_state(static)
            state = recovered.server.snapshot_state(static=False)
            earlier = (fixture / "expected-state.bin").read_bytes()
            assert b"_edge_to_sequence" in earlier and b"_edge_to_sequence" not in state
            again = restore_server(earlier, static.getvalue()).snapshot_state(static=False)
            assert again == state
            assert len(state) < len(earlier)
    finally:
        recovered.close()
