"""The write-ahead log's batch record: old values come from the pre-batch server.

``encode_batch(batch, edge_table)`` writes header flag bit 1 and leaves out
every object's old location and every edge's old weight, because they are
the table's and its network's current values; ``decode_batch(payload,
edge_table)`` reads them back there.  Given the applied query map as well,
``encode_batch(batch, edge_table, query_locations)`` adds flag bit 2: no
query old locations, bit columns instead of kind bytes, and every new
fraction and weight XORed with the old value, written as a 4-bit count of
significant bytes plus those bytes.  The tests pin both layouts (a
version-2 record, int columns at 4 or 8 bytes, still decodes), their
per-row cost at int8, int16 and int32 ids, the round trips over random
table and query-map states, the XOR column's edge cases, the refusal to
drop an old value the table or the map does not hold, and what the decoder
does with a flagged record it cannot trust: no table or map, a table
without the named object or edge, truncation at every offset and a
thousand seeded bit flips of each flagging (CI rotates ``FUZZ_BASE_SEED``).
"""

from __future__ import annotations

import os
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DurableMonitoringServer, MonitoringServer, QuerySpec, city_network
from repro.core.events import (
    EdgeWeightUpdate,
    ObjectUpdate,
    QueryUpdate,
    UpdateBatch,
    decode_batch,
    encode_batch,
)
from repro.exceptions import EventLogError, RecoveryError
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.service.eventlog import read_event_log

#: Rotating base seed of the bit-flip fuzz, as in tests/test_batch_codec.py.
BASE_SEED = int(os.environ.get("FUZZ_BASE_SEED", "20060912"))

L = NetworkLocation
FLAG_NORMALIZED, FLAG_OLD_FROM_TABLE, FLAG_DELTA = 0x01, 0x02, 0x04


def header(
    n_objects=0, n_queries=0, n_edges=0, *, flags=FLAG_OLD_FROM_TABLE, timestamp=0, version=3
):
    return struct.pack(
        "<4sBBqIII", b"RPUB", version, flags, timestamp, n_objects, n_queries, n_edges
    )


def int8s(*values):
    return b"\x01" + struct.pack(f"<{len(values)}b", *values)


def int32s(*values):
    return b"\x04" + struct.pack(f"<{len(values)}i", *values)


def float64s(*values):
    return struct.pack(f"<{len(values)}d", *values)


def path_table(edge_ids=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2**40)) -> EdgeTable:
    """A path network, one edge per id (weight 1.0), and an empty table."""
    network = RoadNetwork()
    network.add_node(0, x=0.0, y=0.0)
    for position, edge_id in enumerate(edge_ids, start=1):
        network.add_node(position, x=float(position), y=0.0)
        network.add_edge(edge_id, position - 1, position)
    return EdgeTable(network, build_spatial_index=False)


def sample_table_and_batch():
    """A table and a net batch with every row shape the record can hold."""
    table = path_table()
    network = table.network
    table.insert_object(1, L(0, 0.25))
    table.insert_object(2**40, L(5, 0.0))
    table.insert_object(3, L(2**40, 0.5))
    network.set_edge_weight(3, 10.0)
    batch = UpdateBatch(timestamp=41)
    batch.object_updates += [
        ObjectUpdate(1, L(0, 0.25), L(1, 0.75)),
        ObjectUpdate(2, None, L(5, 1.0)),
        ObjectUpdate(2**40, L(5, 0.0), None),
        ObjectUpdate(3, L(2**40, 0.5), L(2**40, 0.75)),
    ]
    batch.query_updates += [
        QueryUpdate(100, L(2, 0.5), L(2, 0.6)),
        QueryUpdate(101, None, L(3, 0.5), 4),
        QueryUpdate(
            102, None, L(3, 0.5), QuerySpec.aggregate_knn(2, (L(1, 0.1),), "max")
        ),
        QueryUpdate(-5, L(3, 0.5), None),
    ]
    batch.edge_updates += [EdgeWeightUpdate(3, 10.0, 12.5), EdgeWeightUpdate(4, 1.0, 2.0)]
    return table, batch.normalized()


#: The applied query map ``sample_table_and_batch``'s batch is written against.
SAMPLE_QUERIES = {100: L(2, 0.5), -5: L(3, 0.5), 7: L(9, 1.0)}


# ----------------------------------------------------------------------
# layout and cost
# ----------------------------------------------------------------------
def flagged_layout_table_and_batch():
    """The table and batch both flagged byte-layout goldens hold."""
    table = path_table()
    table.insert_object(7, L(3, 0.25))
    batch = UpdateBatch(timestamp=7)
    batch.add_object_move(7, L(3, 0.25), L(4, 0.75))
    batch.object_updates.append(ObjectUpdate(2**31 - 1, None, L(1, 0.5)))
    batch.query_updates.append(QueryUpdate(100, L(2, 0.5), L(6, 0.0)))
    batch.add_edge_change(9, 1.0, 6.5)
    return table, batch


def test_the_flagged_byte_layout_is_the_documented_one():
    """docs/service.md: flag bit 1 drops the object old locations and the old weights."""
    table, batch = flagged_layout_table_and_batch()
    expected = (
        header(2, 1, 1, timestamp=7, flags=FLAG_OLD_FROM_TABLE)
        # objects: ids (int32: one is 2**31 - 1), kinds move + appear, then
        # new locations only
        + int32s(7, 2**31 - 1) + b"\x01\x00"
        + int8s(4, 1) + float64s(0.75, 0.5)
        # queries keep their old locations: a query is not in the table
        + int8s(100) + b"\x01"
        + int8s(2) + float64s(0.5)
        + int8s(6) + float64s(0.0)
        # edges: ids, then new weights only
        + int8s(9) + float64s(6.5)
    )
    assert encode_batch(batch, table) == expected
    assert decode_batch(expected, table) == batch
    net = batch.normalized()
    assert encode_batch(net, table) == (
        header(2, 1, 1, timestamp=7, flags=FLAG_NORMALIZED | FLAG_OLD_FROM_TABLE)
        + expected[26:]
    )
    # self-contained, the same batch adds an old-location column pair
    # (tag, int8 edge id, fraction) and an old-weight column
    assert encode_batch(batch)[5] == 0
    assert len(encode_batch(batch)) == len(expected) + (1 + 1 + 8) + 8


def test_a_flagged_version_2_record_still_decodes_to_the_same_batch():
    """The int32 columns an earlier release logged, read against the same table."""
    table, batch = flagged_layout_table_and_batch()
    version_2 = (
        header(2, 1, 1, timestamp=7, flags=FLAG_OLD_FROM_TABLE, version=2)
        + int32s(7, 2**31 - 1) + b"\x01\x00"
        + int32s(4, 1) + float64s(0.75, 0.5)
        + int32s(100) + b"\x01"
        + int32s(2) + float64s(0.5)
        + int32s(6) + float64s(0.0)
        + int32s(9) + float64s(6.5)
    )
    assert decode_batch(version_2, table) == batch
    assert len(encode_batch(batch, table)) == len(version_2) - 3 * 6  # 6 ids, 3 bytes narrower


def test_the_flag_bit_2_byte_layout_is_the_documented_one():
    """docs/service.md: bit columns, no query old locations, XORed fractions and weights."""
    table, batch = flagged_layout_table_and_batch()
    queries = {100: L(2, 0.5)}
    zeros = bytes(6)
    expected = (
        header(2, 1, 1, timestamp=7, flags=FLAG_OLD_FROM_TABLE | FLAG_DELTA)
        # objects: ids, "has a new location" bits (rows 0 and 1), new edges,
        # then the XORed fractions: counts 7 and 8 in one byte, then the
        # low bytes of 0.75 ^ 0.25 and of 0.5 ^ 0.0 (an appearance)
        + int32s(7, 2**31 - 1) + b"\x03"
        + int8s(4, 1) + b"\x87" + zeros + b"\x38" + zeros + b"\xe0\x3f"
        # queries: ids, bits, new edge, 0.0 ^ 0.5, then "carries a k" bits
        # (none, so no spec bits, plain ks or spec rows follow)
        + int8s(100) + b"\x01"
        + int8s(6) + b"\x08" + zeros + b"\xe0\x3f"
        + b"\x00"
        # edges: ids, then 6.5 ^ 1.0
        + int8s(9) + b"\x08" + zeros + b"\xea\x7f"
    )
    assert encode_batch(batch, table, queries) == expected
    assert decode_batch(expected, table, queries) == batch
    # against flag bit 1 alone: the query old location (10 B) and one
    # shared high byte go, three count bytes come; the bits fill the
    # kind bytes' three
    assert len(expected) == len(encode_batch(batch, table)) - 10 - 1 + 3


def _row_cost(build, base, table=None) -> int:
    """Bytes one more row of *build*'s kind adds to a record of ids from *base*."""
    one, two = UpdateBatch(), UpdateBatch()
    build(one, base)
    build(two, base)
    build(two, base + 1)
    return len(encode_batch(two, table)) - len(encode_batch(one, table))


@pytest.mark.parametrize(
    "base, costs",
    [
        (0, ((20, 11), (11, 2), (17, 9))),               # int8 ids
        (1_000, ((23, 13), (13, 3), (18, 10))),          # int16 ids
        (100_000, ((29, 17), (17, 5), (20, 12))),        # int32 ids
    ],
    ids=["int8", "int16", "int32"],
)
def test_per_row_cost_at_int8_int16_and_int32_ids(base, costs):
    """docs/service.md's per-row table: self-contained, then under flag bit 1.

    A row costs its ids at the column's width plus its float64 values: a
    move 3w + 17 / 2w + 9 bytes, a disappearance 2w + 9 / w + 1, an edge
    update w + 16 / w + 8.
    """
    table = path_table(range(base, base + 4))
    for object_id in (base, base + 1):
        table.insert_object(object_id, L(object_id, 0.5))

    def move(batch, i):
        batch.object_updates.append(ObjectUpdate(i, L(i, 0.5), L(i + 2, 0.25)))

    def disappear(batch, i):
        batch.object_updates.append(ObjectUpdate(i, L(i, 0.5), None))

    def edge(batch, i):
        batch.edge_updates.append(EdgeWeightUpdate(i, 1.0, 3.0))

    assert tuple(
        (_row_cost(build, base), _row_cost(build, base, table))
        for build in (move, disappear, edge)
    ) == costs


@pytest.mark.parametrize(
    "base, costs",
    [(0, (9.625, 1.125, 8.5, 9.75)), (1_000, (11.625, 2.125, 9.5, 11.75))],
    ids=["int8", "int16"],
)
def test_per_row_cost_under_flag_bit_2(base, costs):
    """docs/service.md's per-row table, flag bits 1 + 2, over 8 more rows.

    A row costs its ids at the column's width, 1/8 B of bit column, and
    per new fraction or weight a 1/2 B count plus its significant XOR
    bytes: here 7 for a move of 0.5 to 0.25 (the sign and exponent are
    shared) and 7 for a weight of 1.0 to 1.5.  A query row adds 1/8 B of
    "carries a k" bits and drops its old location, 2w + 9 B under flag
    bit 1 alone.
    """
    rows = range(base, base + 32)
    table = path_table(range(base, base + 40))
    queries = {}
    for entity_id in rows:
        table.insert_object(entity_id, L(entity_id, 0.5))
        queries[entity_id] = L(entity_id, 0.5)

    def cost(build) -> float:
        sizes = []
        for count in (8, 16):
            batch = UpdateBatch()
            for i in rows[:count]:
                build(batch, i)
            sizes.append(len(encode_batch(batch, table, queries)))
        return (sizes[1] - sizes[0]) / 8

    def move(batch, i):
        batch.object_updates.append(ObjectUpdate(i, L(i, 0.5), L(i + 2, 0.25)))

    def disappear(batch, i):
        batch.object_updates.append(ObjectUpdate(i, L(i, 0.5), None))

    def edge(batch, i):
        batch.edge_updates.append(EdgeWeightUpdate(i, 1.0, 1.5))

    def query_move(batch, i):
        batch.query_updates.append(QueryUpdate(i, L(i, 0.5), L(i + 1, 0.25)))

    assert tuple(cost(build) for build in (move, disappear, edge, query_move)) == costs


# ----------------------------------------------------------------------
# round trip over random table states
# ----------------------------------------------------------------------
_NETWORK = city_network(40, seed=5)
_EDGES = sorted(_NETWORK.edge_ids())
assert 0 <= _EDGES[0] and _EDGES[-1] < 2**7  # every location's edge id is one int8 byte
fractions = st.floats(0.0, 1.0)
locations = st.builds(L, st.sampled_from(_EDGES), fractions)
weights = st.floats(0.01, 1e6)


@st.composite
def tables_and_net_batches(draw):
    """A random edge table, then a net batch of updates against it."""
    network = _NETWORK.copy()
    for edge_id in draw(st.lists(st.sampled_from(_EDGES), max_size=8, unique=True)):
        network.set_edge_weight(edge_id, draw(weights))
    table = EdgeTable(network, build_spatial_index=False)
    ids = draw(
        st.lists(
            st.one_of(st.integers(0, 60), st.integers(-(2**70), 2**70)),
            max_size=12,
            unique=True,
        )
    )
    for object_id in ids:
        table.insert_object(object_id, draw(locations))
    batch = UpdateBatch(timestamp=draw(st.integers(-(2**63), 2**63 - 1)))
    for object_id in draw(st.permutations(ids)):
        action = draw(st.sampled_from(("stay", "move", "disappear")))
        if action == "move":
            batch.add_object_move(object_id, table.location_of(object_id), draw(locations))
        elif action == "disappear":
            batch.object_updates.append(
                ObjectUpdate(object_id, table.location_of(object_id), None)
            )
    newcomers = st.integers(100, 200).filter(lambda object_id: object_id not in ids)
    for object_id in draw(st.lists(newcomers, max_size=4, unique=True)):
        batch.object_updates.append(ObjectUpdate(object_id, None, draw(locations)))
    for query_id in draw(st.lists(st.integers(0, 10), max_size=3, unique=True)):
        batch.query_updates.append(
            QueryUpdate(query_id, draw(st.none() | locations), draw(locations), 3)
        )
    for edge_id in draw(st.lists(st.sampled_from(_EDGES), max_size=6, unique=True)):
        old = network.edge(edge_id).weight
        new = draw(weights.filter(lambda weight: weight != old))
        batch.edge_updates.append(EdgeWeightUpdate(edge_id, old, new))
    return table, batch._mark_net()


@settings(max_examples=200, deadline=None)
@given(tables_and_net_batches())
def test_round_trip_against_the_table_is_lossless(table_and_batch):
    table, batch = table_and_batch
    payload = encode_batch(batch, table)
    assert payload[5] == FLAG_NORMALIZED | FLAG_OLD_FROM_TABLE
    clone = decode_batch(payload, table)
    assert clone == batch and clone.net() is clone
    assert encode_batch(clone, table) == payload
    # exactly the self-contained record minus its old-location pair (a
    # width tag, an int8 edge id and a float64 fraction per row) and its
    # old-weight column
    moved = sum(u.old_location is not None for u in batch.object_updates)
    assert len(encode_batch(batch)) - len(payload) == (
        (moved > 0) + 9 * moved + 8 * len(batch.edge_updates)
    )


def test_old_values_are_the_table_objects_themselves():
    """Decoding hands out the table's own locations: nothing new is allocated for them."""
    table, batch = sample_table_and_batch()
    decoded = decode_batch(encode_batch(batch, table), table)
    for update in decoded.object_updates:
        if update.old_location is not None:
            assert update.old_location is table.location_of(update.object_id)


# ----------------------------------------------------------------------
# what the encoder refuses to drop
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "update, complaint",
    [
        (ObjectUpdate(1, L(0, 0.5), L(1, 0.5)), "old location"),       # table: L(0, 0.25)
        (ObjectUpdate(1, L(1, 0.25), None), "old location"),
        (ObjectUpdate(99, L(0, 0.25), L(1, 0.5)), "old location"),     # not in the table
        (EdgeWeightUpdate(3, 9.0, 12.5), "old weight"),               # network: 10.0
        (EdgeWeightUpdate(123, 1.0, 2.0), "old weight"),              # no such edge
        (EdgeWeightUpdate(4, float("nan"), 2.0), "old weight"),
    ],
)
def test_an_old_value_the_table_does_not_hold_is_refused(update, complaint):
    table, batch = sample_table_and_batch()
    if isinstance(update, ObjectUpdate):
        batch.object_updates.append(update)
    else:
        batch.edge_updates.append(update)
    with pytest.raises(EventLogError, match=f"cannot encode .* without its {complaint}"):
        encode_batch(batch, table)
    encode_batch(batch)  # self-contained, the same batch is fine


@pytest.mark.parametrize("disagreement", ["old weight", "old location"])
def test_durable_tick_appends_nothing_when_an_old_value_disagrees(tmp_path, disagreement):
    network = city_network(40, seed=2)
    edges = sorted(network.edge_ids())
    server = MonitoringServer(network, algorithm="ima")
    server.add_object(1, L(edges[0], 0.5))
    durable = DurableMonitoringServer(server, tmp_path / "d", checkpoint_every=None)
    try:
        durable.tick()
        logged = read_event_log(tmp_path / "d" / "events.log")
        assert len(logged) == 1 and logged[0][5] & FLAG_OLD_FROM_TABLE
        if disagreement == "old weight":
            # Ingested against one weight, then changed behind the server's back.
            server.update_edge_weight(edges[1], 7.0)
            network.set_edge_weight(edges[1], 3.0)
        else:
            # An object moved in the table after the move was ingested.
            server.move_object(1, L(edges[2], 0.5))
            server.edge_table.move_object(1, L(edges[3], 0.5))
        with pytest.raises(EventLogError, match=disagreement):
            durable.tick()
        assert read_event_log(tmp_path / "d" / "events.log") == logged
    finally:
        durable.close()


# ----------------------------------------------------------------------
# the decoder trusts nothing
# ----------------------------------------------------------------------
def test_a_flagged_record_needs_the_table_and_everything_it_names():
    table, batch = sample_table_and_batch()
    payload = encode_batch(batch, table)
    with pytest.raises(EventLogError, match="flag bit 0x02.*edge table"):
        decode_batch(payload)
    with pytest.raises(EventLogError, match="flag bit 0x02"):
        decode_batch(header())  # even an empty one
    emptied = path_table()
    emptied.network.set_edge_weight(3, 10.0)
    with pytest.raises(EventLogError, match=r"moves object 1, which the edge table does not hold"):
        decode_batch(payload, emptied)
    no_edge = header(0, 0, 1) + int32s(77) + float64s(2.0)
    with pytest.raises(EventLogError, match="edge 77, which the network does not hold"):
        decode_batch(no_edge, table)
    # An unflagged record never consults the table, whatever it holds.
    assert decode_batch(encode_batch(batch), emptied) == batch


def test_a_flagged_no_op_edge_update_is_refused_against_the_network_weight():
    table = path_table()
    flags = FLAG_NORMALIZED | FLAG_OLD_FROM_TABLE
    record = header(0, 0, 1, flags=flags) + int32s(9) + float64s(1.0)
    with pytest.raises(EventLogError, match="no-op"):
        decode_batch(record, table)
    unmarked = header(0, 0, 1) + int32s(9) + float64s(1.0)
    assert decode_batch(unmarked, table).edge_updates == [EdgeWeightUpdate(9, 1.0, 1.0)]


def test_truncated_at_every_byte_offset_and_trailing_bytes():
    table, batch = sample_table_and_batch()
    payload = encode_batch(batch, table)
    for cut in range(len(payload)):
        with pytest.raises(EventLogError):
            decode_batch(payload[:cut], table)
    with pytest.raises(EventLogError, match="trailing"):
        decode_batch(payload + b"\x00", table)


def test_a_thousand_bit_flips_give_a_typed_error_or_a_valid_batch():
    """Never another exception; whatever does decode encodes again cleanly."""
    table, batch = sample_table_and_batch()
    payload = encode_batch(batch, table)
    rng = random.Random(f"wal-record-fuzz/{BASE_SEED}")
    survivors = 0
    for flip in range(1_000):
        damaged = bytearray(payload)
        for _ in range(rng.choice((1, 1, 1, 2, 8))):
            damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
        try:
            decoded = decode_batch(bytes(damaged), table)
        except EventLogError:
            continue
        survivors += 1
        again = encode_batch(decoded)
        assert encode_batch(decode_batch(again)) == again, (
            f"flip {flip} of FUZZ_BASE_SEED={BASE_SEED} decoded to a batch that "
            f"does not survive its own round trip"
        )
        if damaged[5] & FLAG_OLD_FROM_TABLE:
            # Its old values came from the table, so the table takes it back.
            assert decode_batch(encode_batch(decoded, table), table) == decoded
    assert survivors


def test_recovery_reports_a_record_the_restored_table_cannot_fill_in(tmp_path):
    network = city_network(40, seed=2)
    edges = sorted(network.edge_ids())
    server = MonitoringServer(network, algorithm="ima")
    durable = DurableMonitoringServer(server, tmp_path / "d", checkpoint_every=None)
    # A record written against a table that holds object 9, which the
    # logged server never had.
    other = EdgeTable(network.copy(), build_spatial_index=False)
    other.insert_object(9, L(edges[0], 0.5))
    forged = UpdateBatch(timestamp=0)
    forged.add_object_move(9, L(edges[0], 0.5), L(edges[1], 0.5))
    durable.log.append(encode_batch(forged._mark_net(), other))
    with pytest.raises(RecoveryError, match="object 9, which the edge table does not hold"):
        DurableMonitoringServer.recover(tmp_path / "d")
    durable.close()


# ----------------------------------------------------------------------
# flag bit 2: against the query map, kinds from membership, XORed values
# ----------------------------------------------------------------------
specs = st.one_of(
    st.integers(1, 9),
    st.builds(QuerySpec.knn, st.integers(1, 9)),
    st.builds(QuerySpec.range, st.floats(0.01, 1e4)),
    st.builds(
        QuerySpec.aggregate_knn,
        st.integers(1, 4),
        st.lists(locations, min_size=1, max_size=2).map(tuple),
        st.sampled_from(("sum", "max")),
    ),
)


@st.composite
def states_and_net_batches(draw):
    """A random table and query map, then a net batch of every row shape against them."""
    table, batch = draw(tables_and_net_batches())
    batch.query_updates.clear()
    queries = {
        query_id: draw(locations)
        for query_id in draw(
            st.lists(st.one_of(st.integers(0, 60), st.integers(-(2**40), 2**40)), unique=True)
        )
    }
    for query_id in draw(st.permutations(list(queries))):
        action = draw(st.sampled_from(("stay", "move", "move with a spec", "disappear")))
        if action == "disappear":
            k = draw(st.none() | specs)  # a termination may carry one
            batch.query_updates.append(QueryUpdate(query_id, queries[query_id], None, k))
        elif action != "stay":
            k = draw(specs) if action == "move with a spec" else None
            batch.query_updates.append(
                QueryUpdate(query_id, queries[query_id], draw(locations), k)
            )
    newcomers = st.integers(100, 200).filter(lambda query_id: query_id not in queries)
    for query_id in draw(st.lists(newcomers, max_size=4, unique=True)):
        batch.query_updates.append(QueryUpdate(query_id, None, draw(locations), draw(specs)))
    return table, queries, batch._mark_net()


@settings(max_examples=200, deadline=None)
@given(states_and_net_batches())
def test_round_trip_against_the_table_and_the_query_map_is_lossless(state):
    table, queries, batch = state
    payload = encode_batch(batch, table, queries)
    assert payload[5] == FLAG_NORMALIZED | FLAG_OLD_FROM_TABLE | FLAG_DELTA
    clone = decode_batch(payload, table, queries)
    assert clone == batch and clone.net() is clone
    assert [type(u.k) for u in clone.query_updates] == [type(u.k) for u in batch.query_updates]
    assert encode_batch(clone, table, queries) == payload
    for update in clone.query_updates:
        if update.old_location is not None:
            assert update.old_location is queries[update.query_id]


def _xor_round_trip(table, batch, queries=None):
    """Encode under flag bit 2, decode, and hand back the decoded batch."""
    queries = {} if queries is None else queries
    payload = encode_batch(batch, table, queries)
    clone = decode_batch(payload, table, queries)
    assert clone == batch and encode_batch(clone, table, queries) == payload
    return clone, payload


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def test_xor_of_signed_zero_fractions_keeps_every_bit():
    """The base is the table's own fraction: 0.0 and -0.0 are equal, not the same bits."""
    table = path_table()
    table.insert_object(1, L(0, 0.0))
    table.insert_object(2, L(1, 0.5))
    batch = UpdateBatch()
    # the batch names the table's 0.0 as -0.0: equal, so the encoder takes
    # it, and XORs the new fraction with the table's bits, not the batch's
    batch.object_updates.append(ObjectUpdate(1, L(0, -0.0), L(2, 0.75)))
    batch.object_updates.append(ObjectUpdate(2, L(1, 0.5), L(3, -0.0)))  # to -0.0
    batch.object_updates.append(ObjectUpdate(3, None, L(4, -0.0)))  # appears at -0.0
    clone, _ = _xor_round_trip(table, batch)
    assert [_bits(u.new_location.fraction) for u in clone.object_updates] == [
        _bits(0.75), _bits(-0.0), _bits(-0.0)
    ]


def test_xor_of_subnormal_weights_and_identical_bits():
    table = path_table()
    network = table.network
    network.set_edge_weight(1, 5e-324)
    network.set_edge_weight(2, 2.5e-310)
    batch = UpdateBatch()
    batch.add_edge_change(1, 5e-324, 1e-320)     # subnormal to subnormal
    batch.add_edge_change(2, 2.5e-310, 2.5e-310)  # identical bits: no byte at all
    batch.add_edge_change(3, 1.0, 5e-324)        # normal to subnormal
    clone, payload = _xor_round_trip(table, batch)
    assert [_bits(u.new_weight) for u in clone.edge_updates] == [
        _bits(1e-320), _bits(2.5e-310), _bits(5e-324)
    ]
    # counts: 1e-320 ^ 5e-324 fits 2 bytes, the identical one 0, 5e-324 ^ 1.0 8
    assert payload.endswith(
        int8s(1, 2, 3)
        + b"\x02\x08"
        + struct.pack("<Q", 2024 ^ 1)[:2]
        + struct.pack("<Q", 0x3FF0000000000000 ^ 1)
    )


def test_xor_of_appearances_is_against_zero_and_a_zero_fraction_costs_nothing():
    table = path_table()
    queries = {}
    batch = UpdateBatch()
    batch.object_updates.append(ObjectUpdate(5, None, L(3, 0.0)))
    batch.object_updates.append(ObjectUpdate(6, None, L(3, 1.0)))
    batch.query_updates.append(QueryUpdate(9, None, L(4, 0.0), 2))
    clone, payload = _xor_round_trip(table, batch, queries)
    objects = header(2, 1, 0, flags=FLAG_OLD_FROM_TABLE | FLAG_DELTA) + int8s(5, 6) + b"\x03"
    assert payload.startswith(objects + int8s(3, 3) + b"\x80" + _bits(1.0))
    # the query: no fraction bytes, then "carries a k", "not a spec", k = 2
    assert payload.endswith(int8s(9) + b"\x01" + int8s(4) + b"\x00" + b"\x01\x00" + int8s(2))


@pytest.mark.parametrize(
    "damage, complaint",
    [
        (lambda record: record[:-1] + b"\x00", "zero high byte"),
        (lambda record: record.replace(b"\x08\x00\x00", b"\x09\x00\x00", 1), "wider than 8"),
    ],
    ids=["non-canonical", "count above 8"],
)
def test_a_damaged_xor_column_is_refused(damage, complaint):
    table = path_table()
    batch = UpdateBatch()
    batch.add_edge_change(9, 1.0, 6.5)
    record = encode_batch(batch, table, {})
    assert record[-9:] == b"\x08" + bytes(6) + b"\xea\x7f"
    with pytest.raises(EventLogError, match=complaint):
        decode_batch(damage(record), table, {})


def test_padding_bits_and_nibbles_are_refused():
    table = path_table()
    batch = UpdateBatch()
    batch.object_updates.append(ObjectUpdate(5, None, L(3, 0.5)))
    record = bytearray(encode_batch(batch, table, {}))
    start = _RECORD_HEADER_SIZE + 2  # past the header and the int8 id column
    assert record[start] == 0x01 and record[start + 3] == 0x08
    bits = bytearray(record)
    bits[start] |= 0x02
    with pytest.raises(EventLogError, match="padding bit"):
        decode_batch(bytes(bits), table, {})
    nibble = bytearray(record)
    nibble[start + 3] |= 0x10  # the second count of a one-value column
    with pytest.raises(EventLogError, match="padding nibble"):
        decode_batch(bytes(nibble), table, {})


_RECORD_HEADER_SIZE = len(header())


def test_a_flag_bit_2_record_needs_bit_1_and_the_query_map():
    table, batch = sample_table_and_batch()
    payload = encode_batch(batch, table, SAMPLE_QUERIES)
    with pytest.raises(EventLogError, match="flag bit 0x04.*query map"):
        decode_batch(payload, table)
    with pytest.raises(EventLogError, match="0x04 without 0x02"):
        decode_batch(header(flags=FLAG_DELTA), table, {})
    with pytest.raises(EventLogError, match="only with the edge table"):
        encode_batch(batch, None, SAMPLE_QUERIES)
    # a disappearance names an id the table must hold
    gone = header(1, 0, 0, flags=FLAG_OLD_FROM_TABLE | FLAG_DELTA) + int8s(42) + b"\x00"
    with pytest.raises(EventLogError, match="removes object 42, which the edge table"):
        decode_batch(gone, table, {})


@pytest.mark.parametrize(
    "update, complaint",
    [
        (QueryUpdate(100, L(2, 0.25), L(1, 0.5)), "without its old location"),  # map: L(2, 0.5)
        (QueryUpdate(7, L(9, 0.5), None), "without its old location"),         # map: L(9, 1.0)
        (QueryUpdate(55, L(1, 0.5), L(1, 0.75)), "without its old location"),  # not in the map
        (QueryUpdate(7, None, L(1, 0.5), 3), "appearance of query 7"),           # in the map
        (ObjectUpdate(1, None, L(1, 0.5)), "appearance of object 1"),           # in the table
    ],
)
def test_an_old_location_the_query_map_does_not_hold_is_refused(update, complaint):
    table, batch = sample_table_and_batch()
    if isinstance(update, ObjectUpdate):
        batch.object_updates.append(update)
    else:
        batch.query_updates.append(update)
    with pytest.raises(EventLogError, match=complaint):
        encode_batch(batch, table, SAMPLE_QUERIES)
    encode_batch(batch)  # self-contained, the same batch is fine


def test_durable_tick_appends_nothing_when_a_query_old_location_disagrees(tmp_path):
    network = city_network(40, seed=2)
    edges = sorted(network.edge_ids())
    server = MonitoringServer(network, algorithm="ima")
    server.add_object(1, L(edges[0], 0.5))
    server.add_query(100, L(edges[1], 0.5), 1)
    durable = DurableMonitoringServer(server, tmp_path / "d", checkpoint_every=None)
    try:
        durable.tick()
        logged = read_event_log(tmp_path / "d" / "events.log")
        assert len(logged) == 1 and logged[0][5] == FLAG_NORMALIZED | FLAG_OLD_FROM_TABLE | (
            FLAG_DELTA
        )
        # Ingested against one location, then moved behind the server's back.
        server.move_query(100, L(edges[2], 0.5))
        server.applied_query_locations[100] = L(edges[3], 0.5)
        with pytest.raises(EventLogError, match="query 100 without its old location"):
            durable.tick()
        assert read_event_log(tmp_path / "d" / "events.log") == logged
    finally:
        durable.close()


def test_a_thousand_bit_flips_of_a_flag_bit_2_record():
    """Never another exception; whatever decodes encodes again cleanly, also against the map."""
    table, batch = sample_table_and_batch()
    payload = encode_batch(batch, table, SAMPLE_QUERIES)
    assert payload[5] == FLAG_NORMALIZED | FLAG_OLD_FROM_TABLE | FLAG_DELTA
    for cut in range(len(payload)):
        with pytest.raises(EventLogError):
            decode_batch(payload[:cut], table, SAMPLE_QUERIES)
    rng = random.Random(f"wal-record-delta-fuzz/{BASE_SEED}")
    survivors = 0
    for flip in range(1_000):
        damaged = bytearray(payload)
        for _ in range(rng.choice((1, 1, 1, 2, 8))):
            damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
        try:
            decoded = decode_batch(bytes(damaged), table, SAMPLE_QUERIES)
        except EventLogError:
            continue
        survivors += 1
        again = encode_batch(decoded)
        assert encode_batch(decode_batch(again)) == again, (
            f"flip {flip} of FUZZ_BASE_SEED={BASE_SEED} decoded to a batch that "
            f"does not survive its own round trip"
        )
        if damaged[5] & FLAG_DELTA:
            # Kinds and old values came from the table and the map, so they
            # take it back.
            assert decode_batch(
                encode_batch(decoded, table, SAMPLE_QUERIES), table, SAMPLE_QUERIES
            ) == decoded
        elif damaged[5] & FLAG_OLD_FROM_TABLE:
            assert decode_batch(encode_batch(decoded, table), table) == decoded
    assert survivors
