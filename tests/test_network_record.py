"""The columnar network record: lossless, order-keeping, pickle-free, distrustful.

``write_network`` / ``decode_network`` are how a road network leaves the
process — the durable base file and a shard worker's network — so the tests
here pin the byte layout, the round trip (values, dict and adjacency order,
versions), the narrowest int width, and what the decoder does with bytes it
did not write: truncated at every offset, counts the payload cannot hold,
bad magic or version, rows that break a network rule, and a thousand
seeded bit flips (CI rotates ``FUZZ_BASE_SEED``).  Every failure is a
:class:`RecoveryError`; none is a ``MemoryError`` or a hang.
"""

from __future__ import annotations

import ast
import io
import math
import os
import pathlib
import random
import struct
import tracemalloc

import pytest

from repro import city_network
from repro.exceptions import NetworkError, RecoveryError
from repro.network import record
from repro.network.graph import RoadNetwork
from repro.network.record import decode_network, encode_network, write_network

#: Rotating base seed of the bit-flip fuzz, as in tests/test_batch_codec.py.
BASE_SEED = int(os.environ.get("FUZZ_BASE_SEED", "20060912"))


def header(nodes=0, edges=0, *, topology=0, weights=0, version=1, magic=b"RPNR"):
    return struct.pack("<4sBQQII", magic, version, topology, weights, nodes, edges)


def ints(width, *values):
    code = {1: "b", 2: "h", 4: "i", 8: "q"}[width]
    return bytes((width,)) + struct.pack(f"<{len(values)}{code}", *values)


def floats(*values):
    return struct.pack(f"<{len(values)}d", *values)


def triangle() -> RoadNetwork:
    network = RoadNetwork()
    for node_id, x, y in ((5, 0.0, 0.0), (3, 4.0, 0.0), (9, 0.0, 3.0)):
        network.add_node(node_id, x, y)
    network.add_edge(20, 5, 3)
    network.add_edge(21, 3, 9, weight=2.5, oneway=True)
    network.add_edge(22, 9, 5)
    return network


def snapshot(network: RoadNetwork):
    """Everything the record must carry, order included."""
    return (
        [(n.node_id, n.x, n.y) for n in network.nodes()],
        [(e.edge_id, e.start, e.end, e.base_weight, e.oneway) for e in network.edges()],
        {node_id: network.incident_edges(node_id) for node_id in network.node_ids()},
        list(network.node_ids()),
        network.topology_version,
        network.weight_version,
    )


# ----------------------------------------------------------------------
# layout and round trip
# ----------------------------------------------------------------------
def test_the_byte_layout_is_the_documented_one():
    network = triangle()
    expected = (
        header(3, 3, topology=6, weights=0)
        + ints(1, 5, 3, 9) + floats(0.0, 4.0, 0.0) + floats(0.0, 0.0, 3.0)
        + ints(1, 20, 21, 22) + ints(1, 5, 3, 9) + ints(1, 3, 9, 5)
        + floats(4.0, 2.5, 3.0) + b"\x00\x01\x00"
    )
    assert encode_network(network) == expected


def test_round_trip_keeps_values_order_and_versions():
    network = city_network(300, seed=4)
    for edge_id in list(network.edge_ids())[::7]:
        network.scale_edge_weight(edge_id, 1.5)  # current weights: not in the record
    network.remove_edge(next(iter(network.edge_ids())))
    network.add_edge(10**6, *next(iter(network.edges())).endpoints(), weight=3.0)
    blob = encode_network(network)
    clone, end = decode_network(blob)
    assert end == len(blob)
    assert snapshot(clone) == snapshot(network)
    assert all(edge.weight == edge.base_weight for edge in clone.edges())
    clone.restore_weights(network.weight_column(), network.weight_version)
    assert clone.weight_column() == network.weight_column()
    assert encode_network(clone) == blob


def test_the_record_is_self_delimiting():
    blob = encode_network(triangle())
    clone, end = decode_network(blob + b"what follows is the caller's")
    assert end == len(blob) and snapshot(clone) == snapshot(triangle())


def test_write_network_streams_what_encode_network_returns():
    network = city_network(80, seed=2)
    stream = io.BytesIO()
    write_network(network, stream)
    assert stream.getvalue() == encode_network(network)


def test_the_empty_network_round_trips():
    clone, end = decode_network(encode_network(RoadNetwork()))
    assert (clone.node_count, clone.edge_count, end) == (0, 0, len(header()))  # empty columns: no bytes


@pytest.mark.parametrize(
    "offset, width",
    [
        (0, 1), (-128, 1), (127, 1), (128, 2), (-129, 2), (40_000, 4),
        (2**31 - 1, 4), (2**31, 8), (-(2**63), 8), (2**63, 0), (-(2**70), 0),
    ],
)
def test_ids_take_the_narrowest_width_that_fits(offset, width):
    network = RoadNetwork()
    network.add_node(offset, 0.0, 0.0)
    network.add_node(offset + (1 if offset < 0 else -1), 1.0, 0.0)
    blob = encode_network(network)
    assert blob[len(header())] == width
    assert snapshot(decode_network(blob)[0]) == snapshot(network)


def test_an_id_that_is_not_an_integer_is_a_typed_error_at_encode():
    network = RoadNetwork()
    network.add_node("a", 0.0, 0.0)
    with pytest.raises(NetworkError, match="cannot encode the network's node ids"):
        encode_network(network)


# ----------------------------------------------------------------------
# the decoder trusts nothing
# ----------------------------------------------------------------------
def test_truncated_at_every_byte_offset():
    blob = encode_network(triangle())
    for cut in range(len(blob)):
        with pytest.raises(RecoveryError, match="truncated"):
            decode_network(blob[:cut])


@pytest.mark.parametrize(
    "blob",
    [
        header(0xFFFFFFFF),
        header(0, 0xFFFFFFFF) + b"\x01",
        header(0xFFFFFFFF) + b"\x08" + b"\x00" * 64,
        header(0xFFFFFFFF) + b"\x00" + b"\x01" * 64,  # wide ids: one byte each, then none
        header(0xFFFFFFFF) + b"\x00" + b"\xff" + b"\x00" * 64,  # a 255-byte id, then none
    ],
    ids=["nodes", "edges", "int64-ids", "wide-ids", "long-wide-id"],
)
def test_counts_the_payload_cannot_hold_allocate_nothing(blob):
    tracemalloc.start()
    try:
        with pytest.raises(RecoveryError, match="truncated"):
            decode_network(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, f"decoding {len(blob)} bytes allocated {peak}"


def _two_nodes(edge_id=7, start=1, end=2, weight=1.0, oneway=b"\x00", ids=(1, 2)):
    return (
        header(2, 1) + ints(1, *ids) + floats(0.0, 1.0) + floats(0.0, 0.0)
        + ints(1, edge_id) + ints(1, start) + ints(1, end) + floats(weight) + oneway
    )


@pytest.mark.parametrize(
    "blob, complaint",
    [
        (header(magic=b"RPNX"), "bad magic"),
        (header(magic=b"\x80\x05\x95\x00"), "bad magic"),  # a pickle is not a record
        (header(version=2), "version 2"),
        (header(version=0), "version 0"),
        (header(1) + b"\x03" + b"\x00" * 32, "unknown integer width 3"),
        (_two_nodes(ids=(1, 1)), "DuplicateNodeError"),
        (_two_nodes(end=9), "NodeNotFoundError"),
        (_two_nodes(end=1), "self loop"),
        (_two_nodes(weight=0.0), "InvalidWeightError"),
        (_two_nodes(weight=-1.0), "InvalidWeightError"),
        (_two_nodes(weight=math.inf), "InvalidWeightError"),
        (_two_nodes(weight=math.nan), "InvalidWeightError"),
        (_two_nodes(oneway=b"\x02"), "one-way flag"),
        (b"", "truncated"),
    ],
)
def test_what_no_network_holds_is_a_recovery_error(blob, complaint):
    with pytest.raises(RecoveryError, match=complaint):
        decode_network(blob)


def test_duplicate_edge_ids_are_refused():
    blob = (
        header(3, 2) + ints(1, 1, 2, 3) + floats(0, 1, 2) + floats(0, 0, 0)
        + ints(1, 7, 7) + ints(1, 1, 2) + ints(1, 2, 3) + floats(1.0, 1.0) + b"\x00\x00"
    )
    with pytest.raises(RecoveryError, match="DuplicateEdgeError"):
        decode_network(blob)


def _three_nodes(*, starts=(1, 2), ends=(2, 3), weights=(1.0, 1.0), ids=(1, 2, 3), width=1):
    """Two edges, the second carrying the flaw: a column decode must still see it."""
    node_ids = ints(width, *ids) if width else wide(*ids)
    return (
        header(3, 2) + node_ids + floats(0, 1, 2) + floats(0, 0, 0)
        + ints(1, 7, 8) + ints(1, *starts) + ints(1, *ends) + floats(*weights) + b"\x00\x00"
    )


def wide(*values):
    return b"\x00" + b"".join(
        bytes((8,)) + value.to_bytes(8, "little", signed=True) for value in values
    )


@pytest.mark.parametrize(
    "blob, complaint",
    [
        (_three_nodes(starts=(1, 9)), "NodeNotFoundError"),
        (_three_nodes(ends=(2, 2)), "self loop"),
        (_three_nodes(weights=(1.0, -0.0)), "InvalidWeightError"),
        (_three_nodes(weights=(1.0, math.nan)), "InvalidWeightError"),
        (_three_nodes(ids=(1, 2, 1), width=0), "DuplicateNodeError"),
        (_three_nodes(ids=(1, 2, 3), width=0, ends=(2, 4)), "NodeNotFoundError"),
    ],
    ids=["unknown-start", "self-loop", "negative-zero", "nan", "wide-duplicate", "wide-unknown"],
)
def test_a_flaw_in_a_later_row_is_refused_too(blob, complaint):
    """The decoder checks whole columns; a flaw past the first row still counts."""
    with pytest.raises(RecoveryError, match=complaint):
        decode_network(blob)


def test_the_same_record_minus_the_flaw_decodes():
    network, end = decode_network(_two_nodes())
    assert end == len(_two_nodes()) and network.edge(7).endpoints() == (1, 2)


def test_a_thousand_bit_flips_give_a_recovery_error_or_a_valid_network():
    """Never another exception; whatever does decode encodes again cleanly."""
    blob = encode_network(city_network(40, seed=9))
    rng = random.Random(f"network-record-fuzz/{BASE_SEED}")
    survivors = 0
    for flip in range(1_000):
        damaged = bytearray(blob)
        for _ in range(rng.choice((1, 1, 1, 2, 8))):
            damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
        try:
            network, end = decode_network(bytes(damaged))
        except RecoveryError:
            continue
        survivors += 1
        again = encode_network(network)
        assert encode_network(decode_network(again)[0]) == again, (
            f"flip {flip} of FUZZ_BASE_SEED={BASE_SEED} decoded to a network that "
            f"does not survive its own round trip"
        )
    assert survivors  # a flipped coordinate bit is still a coordinate: both arms reached


def test_the_record_module_imports_no_pickle():
    tree = ast.parse(pathlib.Path(record.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported.isdisjoint({"pickle", "cPickle", "_pickle", "marshal", "shelve", "dill"})
