"""The batch record codec: lossless, deterministic, pickle-free, distrustful.

``encode_batch`` / ``decode_batch`` are the one representation an
:class:`UpdateBatch` has outside a process — the WAL payload, the ``apply``
frame's payload, the input of every replay — so the tests here pin the byte
layout, the round trip over everything a batch can hold, and above all what
the decoder does with bytes it did not write: truncated at every offset,
bit-flipped a thousand times (seeded; CI rotates ``FUZZ_BASE_SEED``),
oversized, trailing, version 1 or 4, or valid in shape and invalid in
value.  Every int column is written at its narrowest width; records of
version 2, which wrote them at 4 or 8 bytes, still decode.
"""

from __future__ import annotations

import ast
import os
import pathlib
import pickle
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QuerySpec
from repro.core import events
from repro.core.events import (
    EdgeWeightUpdate,
    ObjectUpdate,
    QueryUpdate,
    UpdateBatch,
    decode_batch,
    encode_batch,
)
from repro.exceptions import EventLogError
from repro.network.graph import NetworkLocation

#: Rotating base seed of the bit-flip fuzz, as in tests/test_fuzz_differential.py.
BASE_SEED = int(os.environ.get("FUZZ_BASE_SEED", "20060912"))

L = NetworkLocation


# ----------------------------------------------------------------------
# hand-assembled records: the documented layout, spelled out once
# ----------------------------------------------------------------------
def header(n_objects=0, n_queries=0, n_edges=0, *, flags=0, timestamp=0, version=3,
           magic=b"RPUB"):
    return struct.pack(
        "<4sBBqIII", magic, version, flags, timestamp, n_objects, n_queries, n_edges
    )


def int8s(*values):
    return b"\x01" + struct.pack(f"<{len(values)}b", *values)


def int16s(*values):
    return b"\x02" + struct.pack(f"<{len(values)}h", *values)


def int32s(*values):
    return b"\x04" + struct.pack(f"<{len(values)}i", *values)


def int64s(*values):
    return b"\x08" + struct.pack(f"<{len(values)}q", *values)


def float64s(*values):
    return struct.pack(f"<{len(values)}d", *values)


def one_object_move(fraction=0.75):
    """The object section of ``ObjectUpdate(7, L(3, 0.25), L(4, fraction))``."""
    return (
        int32s(7) + b"\x01"
        + int32s(3) + float64s(0.25)
        + int32s(4) + float64s(fraction)
    )


def one_edge(new_weight, edge_id=int32s(9)):
    return edge_id + float64s(5.0) + float64s(new_weight)


def sample_batch() -> UpdateBatch:
    """Every row shape at once: three kinds, three k shapes, three id widths."""
    batch = UpdateBatch(timestamp=41)
    batch.object_updates += [
        ObjectUpdate(1, L(0, 0.25), L(1, 0.75)),
        ObjectUpdate(2, None, L(5, 1.0)),
        ObjectUpdate(2**40, L(5, 0.0), None),
    ]
    batch.query_updates += [
        QueryUpdate(100, L(2, 0.5), L(2, 0.6)),
        QueryUpdate(101, None, L(3, 0.5), 4),
        QueryUpdate(102, None, L(3, 0.5), QuerySpec.range(3.5)),
        QueryUpdate(
            2**70, None, L(3, 0.5),
            QuerySpec.aggregate_knn(2, (L(1, 0.1), L(2**33, 0.2)), "max"),
        ),
        QueryUpdate(-5, L(3, 0.5), None),
    ]
    batch.edge_updates += [EdgeWeightUpdate(3, 10.0, 12.5), EdgeWeightUpdate(4, 1.0, 2.0)]
    return batch


def layout_batch() -> UpdateBatch:
    """The batch both byte-layout goldens hold."""
    batch = UpdateBatch(timestamp=7)
    batch.add_object_move(7, L(3, 0.25), L(4, 0.75))
    batch.object_updates.append(ObjectUpdate(2**31, None, L(1, 0.5)))
    batch.query_updates.append(QueryUpdate(100, L(2, 0.5), None))
    batch.query_updates.append(QueryUpdate(101, None, L(2, 0.5), 4))
    batch.query_updates.append(
        QueryUpdate(102, L(6, 0.0), L(2, 1.0), QuerySpec.aggregate_knn(3, (L(8, 0.5),), "max"))
    )
    batch.add_edge_change(9, 5.0, 6.5)
    return batch


def test_the_byte_layout_is_the_documented_one():
    """A change of these bytes is a change of ``_BATCH_CODEC_VERSION``."""
    batch = layout_batch()
    expected = (
        header(2, 3, 1, timestamp=7)
        # objects: ids (int64: one is 2**31), kinds move + appear, old, new
        + int64s(7, 2**31) + b"\x01\x00"
        + int8s(3) + float64s(0.25)
        + int8s(4, 1) + float64s(0.75, 0.5)
        # queries: kind | k-shape << 2 = disappear/none, appear/int, move/spec
        + int8s(100, 101, 102) + bytes((2, 0 | 1 << 2, 1 | 2 << 2))
        + int8s(2, 6) + float64s(0.5, 0.0)
        + int8s(2, 2) + float64s(0.5, 1.0)
        + int8s(4)                                        # the plain-int k column
        + struct.pack("<BBqdI", 2, 1, 3, 0.0, 1)          # aggregate_knn, max, k, radius, 1 point
        + int8s(8) + float64s(0.5)                        # the spec rows' points
        # edges
        + int8s(9) + float64s(5.0) + float64s(6.5)
    )
    assert encode_batch(batch) == expected
    assert decode_batch(expected) == batch
    assert encode_batch(UpdateBatch()) == header() and len(header()) == 26
    net = batch.normalized()
    assert encode_batch(net) == header(2, 3, 1, timestamp=7, flags=1) + expected[26:]
    # each column takes its own width: int16 ids, int32 ids, negative ids
    edges = UpdateBatch()
    edges.add_edge_change(-300, 1.0, 2.0)
    edges.add_edge_change(2**15 - 1, 1.0, 2.0)
    assert encode_batch(edges) == (
        header(0, 0, 2) + int16s(-300, 2**15 - 1) + float64s(1.0, 1.0) + float64s(2.0, 2.0)
    )
    edges.add_edge_change(2**15, 1.0, 2.0)
    assert encode_batch(edges)[26:39] == int32s(-300, 2**15 - 1, 2**15)


def test_a_version_2_record_still_decodes_to_the_same_batch():
    """Version 2 wrote every int column at 4 or 8 bytes: the bytes an earlier release logged."""
    batch = layout_batch()
    version_2 = (
        header(2, 3, 1, timestamp=7, version=2)
        + int64s(7, 2**31) + b"\x01\x00"
        + int32s(3) + float64s(0.25)
        + int32s(4, 1) + float64s(0.75, 0.5)
        + int32s(100, 101, 102) + bytes((2, 0 | 1 << 2, 1 | 2 << 2))
        + int32s(2, 6) + float64s(0.5, 0.0)
        + int32s(2, 2) + float64s(0.5, 1.0)
        + int32s(4)
        + struct.pack("<BBqdI", 2, 1, 3, 0.0, 1)
        + int32s(8) + float64s(0.5)
        + int32s(9) + float64s(5.0) + float64s(6.5)
    )
    assert decode_batch(version_2) == batch
    net = decode_batch(header(2, 3, 1, timestamp=7, flags=1, version=2) + version_2[26:])
    assert net == batch.normalized() and net.net() is net
    assert decode_batch(header(version=2)) == UpdateBatch()
    # re-encoding writes the current version, at the narrow widths
    assert encode_batch(decode_batch(version_2))[4] == 3
    assert len(encode_batch(batch)) == len(version_2) - 3 * 13  # 13 ids, 3 bytes narrower


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
_BOUNDARIES = [
    bound + offset
    for bits in (7, 15, 31, 63)
    for bound, offset in ((2**bits, -1), (2**bits, 0), (-(2**bits), 0), (-(2**bits), -1))
]
ids = st.one_of(
    st.integers(0, 50),  # small, so that ids repeat and normalized() has work to do
    st.integers(-(2**31), 2**31 - 1),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**90), 2**90),
    st.sampled_from(_BOUNDARIES),
)
locations = st.builds(L, ids, st.floats(0.0, 1.0))
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False)
specs = st.one_of(
    st.builds(QuerySpec.knn, st.integers(1, 2**63 - 1)),
    st.builds(QuerySpec.range, positive),
    st.builds(
        QuerySpec.aggregate_knn,
        st.integers(1, 1000),
        st.lists(locations, max_size=3),
        st.sampled_from(["sum", "max"]),
    ),
)
ks = st.one_of(st.integers(1, 2**40), specs)
object_updates = st.one_of(
    st.builds(ObjectUpdate, ids, st.none(), locations),
    st.builds(ObjectUpdate, ids, locations, locations),
    st.builds(ObjectUpdate, ids, locations, st.none()),
)
query_updates = st.one_of(
    st.builds(QueryUpdate, ids, st.none(), locations, ks),
    st.builds(QueryUpdate, ids, locations, locations, st.one_of(st.none(), ks)),
    st.builds(QueryUpdate, ids, locations, st.none(), st.one_of(st.none(), ks)),
)
edge_updates = st.builds(EdgeWeightUpdate, ids, st.floats(allow_nan=False), positive)
batches = st.builds(
    UpdateBatch,
    st.integers(-(2**63), 2**63 - 1),
    st.lists(object_updates, max_size=6),
    st.lists(query_updates, max_size=6),
    st.lists(edge_updates, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(batches)
def test_round_trip_is_lossless_and_deterministic(batch):
    payload = encode_batch(batch)
    clone = decode_batch(payload)
    assert clone == batch
    # == on a k would let QuerySpec.knn(4) pass for 4; the record keeps them apart
    assert [type(u.k) for u in clone.query_updates] == [type(u.k) for u in batch.query_updates]
    assert [u.spec for u in clone.query_updates] == [u.spec for u in batch.query_updates]
    assert encode_batch(clone) == payload == encode_batch(batch)  # flag included: unmarked
    net = batch.normalized()
    net_clone = decode_batch(encode_batch(net))
    assert net_clone == net and net_clone.net() is net_clone  # marked in, marked out


def narrowest_width(values) -> int:
    """The width tag of the narrowest signed layout that holds every value."""
    for width in (1, 2, 4, 8):
        bound = 1 << (8 * width - 1)
        if all(-bound <= value < bound for value in values):
            return width
    return 0


@settings(max_examples=300, deadline=None)
@given(st.lists(ids, min_size=1, max_size=8))
def test_the_width_tag_is_always_the_narrowest_that_holds_the_column(edge_ids):
    batch = UpdateBatch()
    for edge_id in edge_ids:
        batch.add_edge_change(edge_id, 1.0, 2.0)
    payload = encode_batch(batch)
    width = narrowest_width(edge_ids)
    assert payload[26] == width
    if width:
        assert len(payload) == 26 + 1 + width * len(edge_ids) + 16 * len(edge_ids)
    assert decode_batch(payload) == batch


def test_round_trip_of_the_empty_batch_and_of_every_row_shape():
    for batch in (UpdateBatch(), UpdateBatch(timestamp=-3), sample_batch()):
        assert decode_batch(encode_batch(batch)) == batch
    assert isinstance(decode_batch(encode_batch(sample_batch())).query_updates[1].k, int)
    assert decode_batch(bytearray(encode_batch(sample_batch()))) == sample_batch()  # any bytes-like


# ----------------------------------------------------------------------
# the decoder trusts nothing
# ----------------------------------------------------------------------
def test_truncated_at_every_byte_offset_and_trailing_bytes():
    payload = encode_batch(sample_batch())
    for cut in range(len(payload)):
        with pytest.raises(EventLogError):
            decode_batch(payload[:cut])
    with pytest.raises(EventLogError, match="trailing"):
        decode_batch(payload + b"\x00")


def test_a_thousand_bit_flips_give_a_typed_error_or_a_valid_batch():
    """Never another exception; whatever does decode encodes again cleanly."""
    payload = encode_batch(sample_batch().normalized())
    rng = random.Random(f"codec-fuzz/{BASE_SEED}")
    survivors = 0
    for flip in range(1_000):
        damaged = bytearray(payload)
        for _ in range(rng.choice((1, 1, 1, 2, 8))):
            damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
        try:
            batch = decode_batch(bytes(damaged))
        except EventLogError:
            continue
        survivors += 1
        # Bytes, not ==: a flip can turn an (unchecked) old weight into a NaN,
        # which no batch equals, itself included.
        again = encode_batch(batch)
        assert encode_batch(decode_batch(again)) == again, (
            f"flip {flip} of FUZZ_BASE_SEED={BASE_SEED} decoded to a batch that "
            f"does not survive its own round trip"
        )
    assert survivors  # a flipped fraction bit is still a fraction: the fuzz reaches both arms


@pytest.mark.parametrize(
    "record",
    [
        header(0xFFFFFFFF),
        header(0, 0xFFFFFFFF),
        header(0, 0, 0xFFFFFFFF),
        header(0xFFFFFFFF) + b"\x00" + b"\x01" * 64,  # wide ids: one byte each, then none
        header(0, 1) + int32s(1) + bytes((1 | 2 << 2,))
        + int32s(1) + float64s(0.5) + int32s(1) + float64s(0.5)
        + struct.pack("<BBqdI", 2, 0, 1, 0.0, 0xFFFFFFFF),  # a spec claiming 4G points
    ],
    ids=["objects", "queries", "edges", "wide-ids", "spec-points"],
)
def test_counts_the_payload_cannot_hold_allocate_nothing(record):
    tracemalloc.start()
    try:
        with pytest.raises(EventLogError, match="truncated"):
            decode_batch(record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, f"decoding {len(record)} bytes allocated {peak}"


@pytest.mark.parametrize(
    "record, complaint",
    [
        (header(1) + one_object_move(1.5), "fraction outside"),
        (header(1) + one_object_move(-0.1), "fraction outside"),
        (header(1) + one_object_move(float("nan")), "fraction outside"),
        (header(1) + one_object_move(float("inf")), "fraction outside"),
        (header(0, 0, 1) + one_edge(0.0), "positive finite"),
        (header(0, 0, 1) + one_edge(-1.0), "positive finite"),
        (header(0, 0, 1) + one_edge(float("inf")), "positive finite"),
        (header(0, 0, 1) + one_edge(float("nan")), "positive finite"),
        (header(0, 0, 2) + int32s(1, 2) + float64s(1, 1) + float64s(float("nan"), 3.0),
         "positive finite"),  # NaN first: min() and max() alone would step over it
        (header(1) + int32s(7) + b"\x03" + int32s(3) + float64s(0.5), "update kind"),
        (header(1) + int32s(7) + b"\x05" + int32s(3) + float64s(0.5), "update kind"),
        (header(0, 1) + int32s(7) + bytes((1 | 3 << 2,)), "update kind"),  # k shape 3
        (header(0, 1) + int32s(7) + b"\x00" + int32s(3) + float64s(0.5), "needs a k"),
        (header(0, 1) + int32s(7) + bytes((0 | 1 << 2,)) + int32s(3) + float64s(0.5)
         + int32s(0), "k must be"),
        (header(0, 1) + int32s(7) + bytes((0 | 2 << 2,)) + int32s(3) + float64s(0.5)
         + struct.pack("<BBqdI", 3, 0, 1, 0.0, 0), "query spec kind"),
        (header(0, 1) + int32s(7) + bytes((0 | 2 << 2,)) + int32s(3) + float64s(0.5)
         + struct.pack("<BBqdI", 2, 2, 1, 0.0, 0), "aggregate"),
        (header(0, 1) + int32s(7) + bytes((0 | 2 << 2,)) + int32s(3) + float64s(0.5)
         + struct.pack("<BBqdI", 1, 0, 1, -2.0, 0), "radius"),
        (header(0, 1) + int32s(7) + bytes((0 | 2 << 2,)) + int32s(3) + float64s(0.5)
         + struct.pack("<BBqdI", 0, 0, 1, 0.0, 1) + int32s(1) + float64s(0.5),
         "no extra points"),
        (header(1) + b"\x03" + b"\x00" * 64, "integer width"),
        (header(flags=2), "flag"),
        (header(version=4), "version 4"),
        (header(magic=b"RPUX"), "magic"),
        (b"", "truncated"),
        ("RPUB as text", "is bytes, not str"),
        (None, "is bytes, not NoneType"),
        (b"garbage that is long enough to hold a header", "magic"),
        # flagged normalized, and not: an entity twice, a no-op edge update
        (header(2, flags=1) + int32s(7, 7) + b"\x01\x01"
         + int32s(3, 3) + float64s(0.5, 0.5) + int32s(4, 4) + float64s(0.5, 0.5), "twice"),
        (header(0, 0, 1, flags=1) + one_edge(5.0), "no-op"),
    ],
)
def test_values_the_update_classes_would_refuse_are_refused(record, complaint):
    with pytest.raises(EventLogError, match=complaint):
        decode_batch(record)


def test_the_same_records_minus_the_flaw_decode():
    """The rejections above are about the flaw, not about the scaffolding."""
    assert decode_batch(header(1) + one_object_move()).object_updates == [
        ObjectUpdate(7, L(3, 0.25), L(4, 0.75))
    ]
    assert decode_batch(header(0, 0, 1) + one_edge(6.0)).edge_updates == [
        EdgeWeightUpdate(9, 5.0, 6.0)
    ]
    assert decode_batch(header(0, 0, 1, flags=1) + one_edge(6.0)).net().edge_updates
    wide = header(0, 0, 1) + one_edge(6.0, edge_id=b"\x00\x09" + (2**64).to_bytes(9, "little"))
    assert decode_batch(wide).edge_updates == [EdgeWeightUpdate(2**64, 5.0, 6.0)]


def test_a_version_1_pickle_payload_is_refused_by_name_and_never_unpickled(tmp_path):
    marker = tmp_path / "unpickled"

    class Exploit:
        def __reduce__(self):
            return (os.system, (f"touch {marker}",))

    for old in (
        pickle.dumps((1, 0, [], [], []), protocol=pickle.HIGHEST_PROTOCOL),
        pickle.dumps((1, 0, [Exploit()], [], []), protocol=2),
    ):
        with pytest.raises(EventLogError, match=r"version-1 \(pickle\)"):
            decode_batch(old)
    assert not marker.exists()


@pytest.mark.parametrize(
    "build",
    [
        lambda b: b.object_updates.append(ObjectUpdate(1.5, None, L(0, 0.5))),
        lambda b: b.object_updates.append(ObjectUpdate("7", None, L(0, 0.5))),
        lambda b: b.object_updates.append(ObjectUpdate(None, None, L(0, 0.5))),
        lambda b: b.object_updates.extend(
            [ObjectUpdate(2**70, None, L(0, 0.5)), ObjectUpdate(1.5, None, L(0, 0.5))]
        ),
        lambda b: b.object_updates.append(ObjectUpdate(1 << 2100, None, L(0, 0.5))),
        lambda b: b.object_updates.append(ObjectUpdate(1, None, L("e", 0.5))),
        lambda b: b.edge_updates.append(EdgeWeightUpdate(1, "old", 2.0)),
        lambda b: b.query_updates.append(QueryUpdate(1, None, L(0, 0.5), QuerySpec.knn(2**63))),
        lambda b: b.query_updates.append(
            QueryUpdate(1, None, L(0, 0.5), QuerySpec(kind="knn", k=1, agg="median"))
        ),
        lambda b: setattr(b, "timestamp", 2**63),
        lambda b: setattr(b, "timestamp", 1.5),
    ],
)
def test_what_does_not_fit_a_column_is_a_typed_error_at_encode(build):
    batch = UpdateBatch()
    build(batch)
    with pytest.raises(EventLogError, match="cannot encode"):
        encode_batch(batch)


def test_the_codec_module_imports_no_pickle():
    """No fallback decoder can hide where the module cannot reach one."""
    tree = ast.parse(pathlib.Path(events.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported.isdisjoint({"pickle", "cPickle", "_pickle", "marshal", "shelve", "dill"})
    assert not hasattr(events, "pickle")
