"""Property and unit tests for the ways importer and synthetic cities.

The Hypothesis suite throws arbitrary node/way soups — self loops,
parallel edges, disconnected pieces, coincident nodes, dangling islands —
at :func:`repro.realism.import_ways_text` and checks the import contract:
the result is always a *connected* network with strictly positive, finite
weights and dense sequential edge ids, and it survives both
``network.copy()`` and a pickled replica's CSR snapshot byte-for-byte.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NetworkError
from repro.network.csr import csr_snapshot
from repro.realism import (
    SPEED_CLASSES,
    CitySpec,
    import_ways_text,
    parse_ways_text,
    synthetic_city_network,
    synthetic_city_text,
)

# ----------------------------------------------------------------------
# hypothesis: arbitrary node/way soups
# ----------------------------------------------------------------------

#: Every column of a CSR snapshot, ids and dense-index maps included.
_CSR_COLUMNS = (
    "node_ids",
    "node_index",
    "edge_ids",
    "edge_index",
    "indptr",
    "adj_node",
    "adj_eid",
    "adj_weight",
    "adj_forward",
    "edge_weight",
    "edge_start",
    "edge_end",
    "edge_oneway",
    "inc_indptr",
    "inc_edge",
)

_coord = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
).map(lambda value: round(value, 3))


@st.composite
def _way_soups(draw):
    """Arbitrary ways text: nodes plus ways that may be degenerate."""
    node_ids = draw(
        st.lists(st.integers(0, 200), min_size=2, max_size=20, unique=True)
    )
    lines = ["# repro ways v1"]
    for node_id in node_ids:
        x, y = draw(_coord), draw(_coord)
        lines.append(f"node {node_id} {x!r} {y!r}")
    way_count = draw(st.integers(1, 12))
    for way_id in range(way_count):
        speed_class = draw(st.sampled_from(sorted(SPEED_CLASSES)))
        path = draw(st.lists(st.sampled_from(node_ids), min_size=2, max_size=6))
        lines.append(f"way {way_id} {speed_class} {' '.join(map(str, path))}")
    return "\n".join(lines) + "\n"


@given(text=_way_soups())
@settings(max_examples=60, deadline=None)
def test_import_contract_on_arbitrary_soups(text):
    """Any importable soup yields a connected, positively-weighted network."""
    try:
        result = import_ways_text(text)
    except NetworkError:
        # Legal outcome: every segment was a self loop (or zero ways had
        # usable segments); the importer must refuse rather than return an
        # empty network.
        parsed = parse_ways_text(text)
        assert all(
            u == v for way in parsed.ways for u, v in zip(way.node_ids, way.node_ids[1:])
        )
        return
    network = result.network
    assert network.is_connected()
    assert network.edge_count >= 1
    for edge in network.edges():
        assert edge.weight > 0.0
        assert edge.weight != float("inf")
        assert edge.weight == edge.weight  # not NaN
    # Dense sequential edge ids, each with a speed class.
    assert sorted(network.edge_ids()) == list(range(network.edge_count))
    assert sorted(result.speed_classes) == sorted(network.edge_ids())
    assert set(result.speed_classes.values()) <= set(SPEED_CLASSES)
    # No parallel edges survive: endpoint pairs are unique.
    pairs = {frozenset(e.endpoints()) for e in network.edges()}
    assert len(pairs) == network.edge_count
    # Stats account for everything that went in.
    stats = result.stats
    assert stats.edges_kept == network.edge_count
    assert stats.nodes_kept == network.node_count
    assert (
        stats.segments_parsed
        >= stats.edges_kept + stats.self_loops_dropped + stats.parallel_dropped
    )


@given(text=_way_soups())
@settings(max_examples=40, deadline=None)
def test_import_round_trips_through_copy_and_pickled_replica(text):
    """Imported networks survive copy() and a pickled replica's CSR intact.

    A sharded worker builds its CSR snapshot from the network replica it
    unpickles, so its results are byte-identical to the coordinator's only
    if every column of that snapshot equals the original's.
    """
    try:
        result = import_ways_text(text)
    except NetworkError:
        return
    network = result.network

    clone = network.copy()
    assert sorted(clone.edge_ids()) == sorted(network.edge_ids())
    for edge in network.edges():
        twin = clone.edge(edge.edge_id)
        assert twin.endpoints() == edge.endpoints()
        assert twin.weight == edge.weight
        assert twin.base_weight == edge.base_weight

    snapshot = csr_snapshot(network)
    replica_network = pickle.loads(pickle.dumps(network))
    replica = csr_snapshot(replica_network)
    for column in _CSR_COLUMNS:
        assert getattr(replica, column) == getattr(snapshot, column), column

    # A weight change patches every adjacency slot of the edge, on both sides.
    edge_id = next(network.edge_ids())
    for twin in (network, replica_network):
        twin.set_edge_weight(edge_id, 4321.0)
    for csr in (snapshot, replica):
        slots = [slot for slot, eid in enumerate(csr.adj_eid) if eid == edge_id]
        assert slots
        assert all(csr.adj_weight[slot] == 4321.0 for slot in slots)
    for column in _CSR_COLUMNS:
        assert getattr(replica, column) == getattr(snapshot, column), column


# ----------------------------------------------------------------------
# parser errors
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, fragment",
    [
        ("node 1 0 0\n", "header"),
        ("# repro ways v1\nnode 1 0\n", "node"),
        ("# repro ways v1\nnode 1 0 0\nnode 1 1 1\n", "duplicate node"),
        ("# repro ways v1\nnode 1 0 0\nway 1 street 1\n", "way"),
        ("# repro ways v1\nnode 1 0 0\nnode 2 1 1\nway 1 warp 1 2\n", "speed class"),
        ("# repro ways v1\nnode 1 0 0\nway 1 street 1 9\n", "undefined node"),
        (
            "# repro ways v1\nnode 1 0 0\nnode 2 1 1\n"
            "way 1 street 1 2\nway 1 side 2 1\n",
            "duplicate way",
        ),
        ("# repro ways v1\nnode 1 0 0\nnode 2 1 1\nroad 1 street 1 2\n", "record"),
        ("# repro ways v1\nnode 1 0 0\nnode 2 1 1\nway 1 street 1 1\n", "no usable"),
    ],
)
def test_parse_errors_are_reported_with_context(text, fragment):
    """Malformed input raises NetworkError naming the offending construct."""
    with pytest.raises(NetworkError) as excinfo:
        import_ways_text(text, source="soup.ways")
    assert fragment.split()[0] in str(excinfo.value)
    assert "soup.ways" in str(excinfo.value)


def test_parallel_dedup_keeps_the_cheapest():
    """Of two parallel ways, the faster class (lower weight) survives."""
    text = (
        "# repro ways v1\n"
        "node 1 0 0\nnode 2 100 0\nnode 3 200 0\n"
        "way 1 side 1 2\n"
        "way 2 motorway 1 2\n"
        "way 3 street 2 3\n"
    )
    result = import_ways_text(text)
    assert result.stats.parallel_dropped == 1
    pair_class = {
        frozenset(result.network.edge(e).endpoints()): c
        for e, c in result.speed_classes.items()
    }
    assert pair_class[frozenset((1, 2))] == "motorway"


# ----------------------------------------------------------------------
# synthetic city generator
# ----------------------------------------------------------------------

def test_synthetic_city_is_deterministic():
    spec = CitySpec(rows=10, cols=8)
    assert synthetic_city_text(spec, seed=5) == synthetic_city_text(spec, seed=5)
    assert synthetic_city_text(spec, seed=5) != synthetic_city_text(spec, seed=6)


def test_synthetic_city_hits_edge_target():
    for target in (500, 5_000):
        result = synthetic_city_network(target, seed=1)
        assert 0.75 * target < result.network.edge_count < 1.25 * target
        assert result.network.is_connected()


def test_synthetic_city_has_realistic_degree_mix():
    """Arterial grids + removals yield dead ends, shape points, crossings."""
    result = synthetic_city_network(2_000, seed=9)
    network = result.network
    degrees = [network.degree(n) for n in network.node_ids()]
    assert min(degrees) == 1          # dead ends from side-street removal
    assert max(degrees) == 4          # full crossings
    assert any(d == 2 for d in degrees)  # shape points along arterials
    classes = set(result.speed_classes.values())
    assert {"motorway", "arterial", "street", "side"} <= classes
    # Generated duplicates exercised the dedup path.
    assert result.stats.parallel_dropped > 0


def test_synthetic_city_rejects_degenerate_specs():
    with pytest.raises(NetworkError):
        synthetic_city_text(CitySpec(rows=1, cols=5), seed=0)
    with pytest.raises(NetworkError):
        CitySpec.for_target_edges(2)
