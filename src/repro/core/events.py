"""Update/event model: the three update streams the monitoring server receives.

At every timestamp the server receives (Section 3 of the paper):

* **object updates** — a data object moved, appeared, or disappeared;
* **query updates** — a query moved, was installed, or was terminated;
* **edge updates** — the weight of a network edge changed.

An :class:`UpdateBatch` groups the updates of one timestamp.  The paper's
Section 4.5 preprocessing (collapsing several updates of the same entity in
one timestamp into a single net update) is implemented by
:meth:`UpdateBatch.normalized`.

Monitors never mutate the shared :class:`~repro.network.graph.RoadNetwork`
or :class:`~repro.network.edge_table.EdgeTable` themselves; the owner of the
shared state (the simulator or the :class:`~repro.core.server.MonitoringServer`)
calls :func:`apply_batch` exactly once per timestamp and then hands the same
batch to every monitor, so that several algorithms can be compared in
lock-step on identical inputs.
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import (
    EdgeNotFoundError,
    EventLogError,
    InvalidQueryError,
    SimulationError,
)
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.record import ColumnReader, write_float_column, write_int_column
from repro.utils import value_class


@value_class(frozen=True)
class ObjectUpdate:
    """A data-object update: movement, appearance, or disappearance.

    ``old_location is None`` encodes an appearing object and
    ``new_location is None`` a disappearing one; both set is a movement.

    Example::

        ObjectUpdate(7, None, location)        # appearance
        ObjectUpdate(7, location, other)       # movement
        ObjectUpdate(7, other, None)           # disappearance
    """

    object_id: int
    old_location: Optional[NetworkLocation]
    new_location: Optional[NetworkLocation]

    def __post_init__(self) -> None:
        if self.old_location is None and self.new_location is None:
            raise SimulationError(
                f"object update {self.object_id} has neither old nor new location"
            )

    @property
    def is_insertion(self) -> bool:
        """True when the object newly appeared this timestamp."""
        return self.old_location is None

    @property
    def is_deletion(self) -> bool:
        """True when the object disappeared this timestamp."""
        return self.new_location is None


@dataclass(frozen=True)
class QueryUpdate:
    """A query update: movement, installation, or termination.

    ``old_location is None`` encodes a newly installed query (``k`` must be
    provided), ``new_location is None`` a terminated one.  ``k`` is either
    a plain integer (classic k-NN) or a
    :class:`~repro.core.queries.QuerySpec` selecting any query type; the
    normalized view is exposed as :attr:`spec`.

    Example::

        QueryUpdate(100, None, location, k=4)  # k-NN installation
        QueryUpdate(100, None, location, k=QuerySpec.range(25.0))
        QueryUpdate(100, location, other)      # movement
        QueryUpdate(100, other, None)          # termination
    """

    query_id: int
    old_location: Optional[NetworkLocation]
    new_location: Optional[NetworkLocation]
    k: Optional[object] = None

    def __post_init__(self) -> None:
        if self.old_location is None and self.new_location is None:
            raise SimulationError(
                f"query update {self.query_id} has neither old nor new location"
            )
        # Normalize (and validate) the spec exactly once; every consumer on
        # the ingestion path reads the cached value through .spec.  The
        # import is call-time to keep this module a leaf of repro.core.
        from repro.core.queries import as_query_spec

        object.__setattr__(self, "_spec", as_query_spec(self.k))
        if self.old_location is None and self._spec is None:
            raise InvalidQueryError(
                f"newly installed query {self.query_id} needs a k or QuerySpec"
            )

    @property
    def spec(self):
        """The update's :class:`~repro.core.queries.QuerySpec`, or None.

        A plain-int ``k`` was normalized into a k-NN spec at construction;
        a movement that carries no spec returns None.
        """
        return self._spec

    @property
    def is_installation(self) -> bool:
        """True when the query was newly installed this timestamp."""
        return self.old_location is None

    @property
    def is_termination(self) -> bool:
        """True when the query was terminated this timestamp."""
        return self.new_location is None


@value_class(frozen=True)
class EdgeWeightUpdate:
    """An edge-weight change (e.g. reported by a traffic sensor).

    Weights must be positive and *finite*: a road closure is expressed as
    the huge finite sentinel
    :data:`~repro.network.graph.CLOSED_EDGE_WEIGHT`, never ``float("inf")``
    (an infinity would poison distance arithmetic downstream and is
    rejected by the network layer anyway — see ``docs/queries.md``).

    Example::

        update = EdgeWeightUpdate(12, old_weight=5.0, new_weight=6.5)
        assert update.is_increase and update.delta == 1.5
    """

    edge_id: int
    old_weight: float
    new_weight: float

    def __post_init__(self) -> None:
        # `not (x > 0)` also catches NaN, which fails every comparison.
        if not self.new_weight > 0 or self.new_weight == float("inf"):
            raise SimulationError(
                f"edge {self.edge_id}: new weight must be a positive finite "
                f"number, got {self.new_weight}"
            )

    @property
    def is_increase(self) -> bool:
        """True when the edge became more expensive."""
        return self.new_weight > self.old_weight

    @property
    def is_decrease(self) -> bool:
        """True when the edge became cheaper."""
        return self.new_weight < self.old_weight

    @property
    def delta(self) -> float:
        """Signed change ``new_weight - old_weight``."""
        return self.new_weight - self.old_weight


@dataclass
class UpdateBatch:
    """All updates received in one timestamp.

    Example::

        batch = UpdateBatch(timestamp=3)
        batch.add_object_move(7, old_location, new_location)
        batch.add_edge_change(12, old_weight=5.0, new_weight=6.5)
        server.apply_updates(batch.normalized())
    """

    timestamp: int = 0
    object_updates: List[ObjectUpdate] = field(default_factory=list)
    query_updates: List[QueryUpdate] = field(default_factory=list)
    edge_updates: List[EdgeWeightUpdate] = field(default_factory=list)
    # The normalized mark: the three list lengths at the moment the batch was
    # known to be net (None = never).  Comparing lengths instead of keeping a
    # flag means any append — through the add_* methods or straight onto a
    # list — unmarks the batch without having to remember to.
    _net_lengths: Optional[Tuple[int, int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.object_updates) + len(self.query_updates) + len(self.edge_updates)

    def _lengths(self) -> Tuple[int, int, int]:
        return (len(self.object_updates), len(self.query_updates), len(self.edge_updates))

    def _is_net(self) -> bool:
        return self._net_lengths == self._lengths()

    def is_empty(self) -> bool:
        """True when the batch carries no updates at all."""
        return len(self) == 0

    def add_object_move(
        self, object_id: int, old: NetworkLocation, new: NetworkLocation
    ) -> None:
        """Append an object movement to the batch."""
        self.object_updates.append(ObjectUpdate(object_id, old, new))

    def add_query_move(
        self, query_id: int, old: NetworkLocation, new: NetworkLocation
    ) -> None:
        """Append a query movement to the batch."""
        self.query_updates.append(QueryUpdate(query_id, old, new))

    def add_edge_change(self, edge_id: int, old_weight: float, new_weight: float) -> None:
        """Append an edge-weight change to the batch."""
        self.edge_updates.append(EdgeWeightUpdate(edge_id, old_weight, new_weight))

    # ------------------------------------------------------------------
    # preprocessing (Section 4.5)
    # ------------------------------------------------------------------
    def normalized(self) -> "UpdateBatch":
        """Collapse multiple updates of the same entity into net updates.

        For an object (or query) that issued several location updates in the
        same timestamp only the first old location and the last new location
        matter; for an edge only the first old weight and the last new
        weight.  The relative order of distinct entities is preserved.

        The returned batch is marked as net — :meth:`net` hands it back
        unchanged and :func:`encode_batch` records the fact — until
        something is appended to it.
        """
        merged_objects: Dict[int, ObjectUpdate] = {}
        object_order: List[int] = []
        for update in self.object_updates:
            previous = merged_objects.get(update.object_id)
            if previous is None:
                merged_objects[update.object_id] = update
                object_order.append(update.object_id)
            elif previous.old_location is None and update.new_location is None:
                # Appeared and disappeared within the same timestamp: the net
                # effect is nothing at all, so the entity vanishes from the
                # batch (a later re-appearance starts a fresh update).
                del merged_objects[update.object_id]
            else:
                merged_objects[update.object_id] = ObjectUpdate(
                    update.object_id, previous.old_location, update.new_location
                )

        merged_queries: Dict[int, QueryUpdate] = {}
        query_order: List[int] = []
        for update in self.query_updates:
            previous = merged_queries.get(update.query_id)
            if previous is None:
                merged_queries[update.query_id] = update
                query_order.append(update.query_id)
            elif previous.old_location is None and update.new_location is None:
                # Installed and terminated within the same timestamp.
                del merged_queries[update.query_id]
            else:
                merged_queries[update.query_id] = QueryUpdate(
                    update.query_id,
                    previous.old_location,
                    update.new_location,
                    update.k if update.k is not None else previous.k,
                )

        merged_edges: Dict[int, EdgeWeightUpdate] = {}
        edge_order: List[int] = []
        for update in self.edge_updates:
            previous = merged_edges.get(update.edge_id)
            if previous is None:
                merged_edges[update.edge_id] = update
                edge_order.append(update.edge_id)
            else:
                merged_edges[update.edge_id] = EdgeWeightUpdate(
                    update.edge_id, previous.old_weight, update.new_weight
                )

        # Cancelled entities were dropped from the merged maps (and an entity
        # re-appearing after a cancellation re-enters the order list), so the
        # order lists may hold gaps and duplicates — emit each survivor once.
        def _emit(order: List[int], merged: Dict[int, object]) -> List[object]:
            emitted: set = set()
            result: List[object] = []
            for entity_id in order:
                if entity_id in merged and entity_id not in emitted:
                    emitted.add(entity_id)
                    result.append(merged[entity_id])
            return result

        return UpdateBatch(
            timestamp=self.timestamp,
            object_updates=_emit(object_order, merged_objects),
            query_updates=_emit(query_order, merged_queries),
            edge_updates=[
                merged_edges[i]
                for i in edge_order
                if merged_edges[i].old_weight != merged_edges[i].new_weight
            ],
        )._mark_net()

    def net(self) -> "UpdateBatch":
        """This batch as net updates, normalizing only when that is still due.

        A batch returned by :meth:`normalized`, or decoded from a record
        that was encoded from one, is returned as it is; anything else goes
        through :meth:`normalized`.  Every consumer on the tick path asks
        for the net batch this way, so Section 4.5 runs once per tick
        however many layers the batch crosses.

        Example::

            net = batch.net()
            assert net.net() is net
        """
        return self if self._is_net() else self.normalized()

    def _mark_net(self) -> "UpdateBatch":
        """Record that the batch, as it stands, is net; returns the batch.

        For code that builds a batch out of net parts (no entity twice, no
        no-op edge update), where :meth:`normalized` could only copy it.
        """
        self._net_lengths = self._lengths()
        return self


# ----------------------------------------------------------------------
# batch record codec (the WAL payload and the ``apply`` frame's payload)
# ----------------------------------------------------------------------
#: Version of the batch record; bumped whenever the layout changes so that
#: older payloads fail loudly instead of decoding garbage.  Version 1 was a
#: pickle and is recognized only to be refused.  Version 2 wrote int columns
#: at widths 4 and 8 only: a subset of this layout, so it is still read.
_BATCH_CODEC_VERSION = 3
_READ_VERSIONS = (2, _BATCH_CODEC_VERSION)

_RECORD_MAGIC = b"RPUB"
#: magic, version, flags, timestamp, object / query / edge update counts
_RECORD_HEADER = struct.Struct("<4sBBqIII")
_FLAG_NORMALIZED = 0x01
#: The record omits every object old location and every old weight: they
#: are the edge table's current values, and the decoder reads them there.
_FLAG_OLD_FROM_TABLE = 0x02
#: Only with bit 1: the record also omits every query old location (the
#: applied query map's), replaces the kind bytes with bit columns and
#: stores every new fraction and weight as its XOR with the old value.
_FLAG_DELTA = 0x04
#: Every pickle of protocol 2 or later — which is what version 1 wrote —
#: starts with the PROTO opcode.
_PICKLE_PROTO_OPCODE = 0x80

#: One row of the kind column: which sides of the update hold a location.
_APPEAR, _MOVE, _DISAPPEAR = 0, 1, 2
#: Query rows add, shifted above the kind, what their ``k`` holds.
_K_SHIFT = 2
_K_NONE, _K_INT, _K_SPEC = 0, 1, 2
#: kind, aggregate, k, radius, number of extra points
_SPEC_ROW = struct.Struct("<BBqdI")
_SPEC_KINDS = ("knn", "range", "aggregate_knn")
_SPEC_AGGREGATES = ("sum", "max")


def _pack_ints(what: str, values: Sequence[int]) -> bytes:
    """An integer column (:func:`~repro.network.record.write_int_column`)."""
    buffer = io.BytesIO()
    write_int_column(buffer, what, lambda: values, error=EventLogError)
    return buffer.getvalue()


def _pack_floats(what: str, values: Sequence[float]) -> bytes:
    """A float64 column."""
    try:
        column = array("d", values)
    except TypeError as exc:
        raise EventLogError(f"cannot encode the {what}: {exc}") from exc
    buffer = io.BytesIO()
    write_float_column(buffer, column)
    return buffer.getvalue()


#: ``bytes.translate`` tables between one 0/1 byte per row and binary digits,
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
#: from a bit length to its byte count,
_BYTE_COUNTS = bytes((bits + 7) // 8 for bits in range(256))
#: and between a byte and its low nibble, its high one, or a nibble shifted high.
_LOW_NIBBLE = bytes(byte & 0x0F for byte in range(256))
_HIGH_NIBBLE = bytes(byte >> 4 for byte in range(256))
_TO_HIGH_NIBBLE = bytes((byte << 4) & 0xFF for byte in range(256))
_LITTLE = repeat("little")
#: The zero high bytes a value of n significant bytes leaves out.
_HIGH_ZEROS = tuple(bytes(8 - size) for size in range(9))
_BIG_ENDIAN = sys.byteorder == "big"


def _pack_bits(flags: Sequence[bool]) -> bytes:
    """A bit column: row *i* is bit ``i % 8`` of byte ``i // 8``, padding bits 0."""
    if not flags:
        return b""
    digits = bytes(flags).translate(_TO_DIGITS)[::-1]
    return int(digits, 2).to_bytes((len(flags) + 7) // 8, "little")


def _float_bits(what: str, values: Sequence[float]) -> int:
    """A float64 column's bytes, in the host's order, as one integer.

    Two columns XORed this way and turned back into bytes are XORed value
    by value, whatever the host's byte order.
    """
    try:
        column = array("d", values)
    except TypeError as exc:
        raise EventLogError(f"cannot encode the {what}: {exc}") from exc
    return int.from_bytes(column.tobytes(), "little")


def _pack_xor(what: str, values: Sequence[float], bases: Sequence[float]) -> bytes:
    """A float64 column as its XOR with *bases*, the old values the decoder holds.

    Each value keeps only its significant bytes: a 4-bit count per value
    (two to a byte, the first in the low nibble), then every value's low
    bytes in that number, little-endian.  The high bytes a new value
    shares with its old one — sign, exponent, the top of the mantissa —
    cost nothing.
    """
    if not values:
        return b""
    xored = array("Q")  # every value's 64 bits XORed with its base's
    xored.frombytes(
        (_float_bits(what, values) ^ _float_bits(what, bases)).to_bytes(8 * len(values), "little")
    )
    counts = bytes(map(int.bit_length, xored)).translate(_BYTE_COUNTS)
    body = b"".join(map(int.to_bytes, xored, counts, _LITTLE))
    if len(counts) % 2:
        counts += b"\x00"  # the padding nibble
    nibbles = int.from_bytes(counts[0::2], "little") | int.from_bytes(
        counts[1::2].translate(_TO_HIGH_NIBBLE), "little"
    )
    return nibbles.to_bytes(len(counts) // 2, "little") + body


def _pack_locations(
    what: str, locations: Sequence[NetworkLocation], bases: Optional[Sequence[float]] = None
) -> bytes:
    """An ``(edge, fraction)`` column pair; given *bases*, the fractions XORed with them."""
    fractions = [location.fraction for location in locations]
    return _pack_ints(what, [location.edge_id for location in locations]) + (
        _pack_floats(what, fractions) if bases is None else _pack_xor(what, fractions, bases)
    )


def _pack_moves(
    what: str, updates: Sequence, with_old: bool, bases: Optional[Sequence[float]] = None
) -> bytes:
    """The locations of an object or query section, after its ids and kinds.

    With *bases* (flag bit 2), a bit column of the rows that have a new
    location leads, and the new fractions are XORed with the bases.
    """
    parts = []
    if bases is not None:
        parts.append(_pack_bits([u.new_location is not None for u in updates]))
    elif with_old:
        parts.append(
            _pack_locations(
                f"{what} old locations",
                [u.old_location for u in updates if u.old_location is not None],
            )
        )
    parts.append(
        _pack_locations(
            f"{what} new locations",
            [u.new_location for u in updates if u.new_location is not None],
            bases,
        )
    )
    return b"".join(parts)


def _held_fractions(
    what: str,
    holder: str,
    ids: Sequence[int],
    updates: Sequence,
    held: Mapping[int, NetworkLocation],
    appearances: bool,
) -> List[float]:
    """Refuse to omit an old location that *held* does not hold; the XOR bases.

    A record written without them is decoded by reading them back from
    *held* (the edge table's or the query map's locations), so any
    difference would be lost without a trace.  With *appearances*, an
    appearance must name an id *held* lacks, which is how the decoder
    tells it from a move.  Returns, per row with a new location, the
    fraction the decoder XORs it with: the held location's own (``0.0``
    and ``-0.0`` are equal, not the same bits) and 0.0 for an appearance.
    """
    bases = []
    for entity_id, update in zip(ids, updates):
        current = held.get(entity_id)
        old = update.old_location
        if old is None:
            if appearances and current is not None:
                raise EventLogError(
                    f"cannot encode the appearance of {what} {entity_id!r}: the "
                    f"{holder} already holds it"
                )
        elif current is not old and current != old:
            raise EventLogError(
                f"cannot encode {what} {entity_id!r} without its old location: "
                f"the batch says {old}, the {holder} {current}"
            )
        if update.new_location is not None:
            bases.append(0.0 if old is None else current.fraction)
    return bases


def _held_weights(edges: Sequence[EdgeWeightUpdate], network: RoadNetwork) -> List[float]:
    """Refuse to omit an old weight that is not the network's; the weights."""
    weights = []
    for update in edges:
        try:
            current = network.weight_of(update.edge_id)
        except EdgeNotFoundError:
            current = None
        if current != update.old_weight:
            raise EventLogError(
                f"cannot encode edge {update.edge_id!r} without its old weight: "
                f"the batch says {update.old_weight}, the network {current}"
            )
        weights.append(current)
    return weights


def _move_kind(update) -> int:
    if update.old_location is None:
        return _APPEAR
    return _DISAPPEAR if update.new_location is None else _MOVE


def _pack_specs(specs: Sequence) -> bytes:
    """Fixed-layout ``QuerySpec`` rows, then every row's extra points."""
    rows = []
    points: List[NetworkLocation] = []
    for spec in specs:
        try:
            rows.append(
                _SPEC_ROW.pack(
                    _SPEC_KINDS.index(spec.kind),
                    _SPEC_AGGREGATES.index(spec.agg),
                    spec.k,
                    spec.radius,
                    len(spec.points),
                )
            )
        except (ValueError, struct.error) as exc:
            raise EventLogError(f"cannot encode {spec!r}: {exc}") from exc
        points.extend(spec.points)
    return b"".join(rows) + _pack_locations("query spec points", points)


def encode_batch(
    batch: UpdateBatch,
    edge_table: Optional[EdgeTable] = None,
    query_locations: Optional[Mapping[int, NetworkLocation]] = None,
) -> bytes:
    """Serialize a batch to its binary record.

    The inverse of :func:`decode_batch`, and the one representation a batch
    has outside a process: the event-log payload
    (:class:`~repro.service.EventLog`), the payload of the service's
    ``apply`` frame and the input of every replay.  The record is a
    little-endian header followed by one column group per update kind (see
    ``docs/service.md`` for the byte layout); encoding is deterministic,
    lossless and uses no pickle.  A batch known to be net (see
    :meth:`UpdateBatch.net`) says so in the header, so that whoever decodes
    it does not normalize it again.

    Args:
        batch: the batch to encode.
        edge_table: the table the batch is about to be applied to.  Given
            one, the record leaves out every object's old location and
            every edge's old weight (header flag bit 1), because they are
            the table's and its network's current values; only a decoder
            holding that same state can read it back.  An ``apply`` frame
            and the shard pipe are written without one, because their
            readers do not hold the sender's table.
        query_locations: with *edge_table*, the applied query map of the
            server the batch is about to be applied to
            (:attr:`~repro.core.server.MonitoringServer.applied_query_locations`).
            Given one, the record also leaves out every query's old
            location, says per row only whether it has a new location (an
            appearance is an id the pre-batch table or map lacks) and
            whether it carries a ``k``, and stores every new fraction and
            weight as its XOR with the old value (header flag bit 2).  The
            write-ahead log is written this way.

    Raises:
        EventLogError: if a value does not fit its column — a non-integer
            id, a non-numeric fraction or weight, an integer wider than
            255 bytes, a timestamp or ``k`` outside int64 — or, given
            *edge_table*, if an old location or old weight to be left out
            is not the table's, the network's or the query map's current
            one, or (given *query_locations*) an appearance names an id
            they already hold.

    Example::

        payload = encode_batch(batch)
        assert decode_batch(payload) == batch
        wal = encode_batch(batch, server.edge_table, server.applied_query_locations)
        assert decode_batch(wal, server.edge_table, server.applied_query_locations) == batch
    """
    objects, queries, edges = batch.object_updates, batch.query_updates, batch.edge_updates
    with_old = edge_table is None
    delta = query_locations is not None
    if delta and with_old:
        raise EventLogError(
            "a batch record leaves query old locations out only with the edge table"
        )
    try:
        parts = [
            _RECORD_HEADER.pack(
                _RECORD_MAGIC,
                _BATCH_CODEC_VERSION,
                (_FLAG_NORMALIZED if batch._is_net() else 0)
                | (0 if with_old else _FLAG_OLD_FROM_TABLE)
                | (_FLAG_DELTA if delta else 0),
                batch.timestamp,
                len(objects),
                len(queries),
                len(edges),
            )
        ]
    except struct.error as exc:
        raise EventLogError(f"cannot encode batch header: {exc}") from exc
    if objects:
        ids = [u.object_id for u in objects]
        parts.append(_pack_ints("object ids", ids))
        bases = None
        if not with_old:
            bases = _held_fractions(
                "object", "edge table", ids, objects, edge_table.locations, delta
            )
        if not delta:
            parts.append(bytes(map(_move_kind, objects)))
        parts.append(_pack_moves("object", objects, with_old, bases if delta else None))
    if queries:
        ids = [u.query_id for u in queries]
        ks = [u.k for u in queries]
        # A plain-int k and a QuerySpec are told apart, so that the batch
        # comes back as it went in (QueryUpdate already refused anything else).
        k_kinds = [
            _K_NONE if k is None else _K_INT if isinstance(k, int) else _K_SPEC for k in ks
        ]
        parts.append(_pack_ints("query ids", ids))
        if delta:
            bases = _held_fractions("query", "query map", ids, queries, query_locations, True)
            parts.append(_pack_moves("query", queries, False, bases))
            parts.append(_pack_bits([k_kind != _K_NONE for k_kind in k_kinds]))
            parts.append(
                _pack_bits([k_kind == _K_SPEC for k_kind in k_kinds if k_kind != _K_NONE])
            )
        else:
            parts.append(
                bytes(
                    _move_kind(u) | k_kind << _K_SHIFT for u, k_kind in zip(queries, k_kinds)
                )
            )
            parts.append(_pack_moves("query", queries, True))
        parts.append(
            _pack_ints("query k", [k for k, k_kind in zip(ks, k_kinds) if k_kind == _K_INT])
        )
        parts.append(_pack_specs([k for k, k_kind in zip(ks, k_kinds) if k_kind == _K_SPEC]))
    if edges:
        parts.append(_pack_ints("edge ids", [u.edge_id for u in edges]))
        new_weights = [u.new_weight for u in edges]
        if with_old:
            parts.append(_pack_floats("old weights", [u.old_weight for u in edges]))
            parts.append(_pack_floats("new weights", new_weights))
        else:
            old_weights = _held_weights(edges, edge_table.network)
            if delta:
                parts.append(_pack_xor("new weights", new_weights, old_weights))
            else:
                parts.append(_pack_floats("new weights", new_weights))
    return b"".join(parts)


_new = object.__new__
#: Slot-descriptor setters the decoder fills rows with: a slotted instance has
#: no ``__dict__``, and ``object.__setattr__`` re-looks the descriptor up.
_SET_EDGE_ID = NetworkLocation.__dict__["edge_id"].__set__
_SET_FRACTION = NetworkLocation.__dict__["fraction"].__set__
_SET_OBJECT_ID = ObjectUpdate.__dict__["object_id"].__set__
_SET_OLD_LOCATION = ObjectUpdate.__dict__["old_location"].__set__
_SET_NEW_LOCATION = ObjectUpdate.__dict__["new_location"].__set__
_SET_WEIGHT_EDGE_ID = EdgeWeightUpdate.__dict__["edge_id"].__set__
_SET_OLD_WEIGHT = EdgeWeightUpdate.__dict__["old_weight"].__set__
_SET_NEW_WEIGHT = EdgeWeightUpdate.__dict__["new_weight"].__set__
_OBJECT_KINDS = bytes((_APPEAR, _MOVE, _DISAPPEAR))
_QUERY_KINDS = bytes(
    kind | k_kind << _K_SHIFT
    for k_kind in (_K_NONE, _K_INT, _K_SPEC)
    for kind in _OBJECT_KINDS
)
#: ``bytes.translate`` table that strips a query row's k bits off its kind.
_KIND_ONLY = bytes(byte & ((1 << _K_SHIFT) - 1) for byte in range(256))


class _RecordReader(ColumnReader):
    """Cursor over a batch record: the shared columns plus its row shapes."""

    def __init__(self, view: memoryview) -> None:
        super().__init__(view, "batch record", error=EventLogError)

    def bits(self, what: str, count: int) -> bytes:
        """A bit column of *count* rows, as one byte (0 or 1) per row."""
        if not count:
            return b""
        value = int.from_bytes(self.take(what, (count + 7) // 8), "little")
        if value >> count:
            raise EventLogError(f"batch record: {what} set a padding bit")
        return format(value, f"0{count}b").encode()[::-1].translate(_FROM_DIGITS)

    def xor_floats(self, what: str, count: int, bases: Sequence[float]) -> array:
        """A float64 column :func:`_pack_xor` wrote against *bases*."""
        if not count:
            return array("d")
        nibbles = bytes(self.take(f"{what} byte counts", (count + 1) // 2))
        counts = bytearray(2 * len(nibbles))
        counts[0::2] = nibbles.translate(_LOW_NIBBLE)
        counts[1::2] = nibbles.translate(_HIGH_NIBBLE)
        if count % 2 and counts[count]:
            raise EventLogError(f"batch record: {what} set a padding nibble")
        del counts[count:]
        if max(counts) > 8:
            raise EventLogError(f"batch record: {what} hold a value wider than 8 bytes")
        body = self.take(what, sum(counts))
        # Each value's low bytes, then the zero high ones it left out.
        chunks = []
        start = 0
        for size in counts:
            end = start + size
            if size and not body[end - 1]:
                raise EventLogError(f"batch record: {what} count a zero high byte")
            chunks.append(body[start:end])
            chunks.append(_HIGH_ZEROS[size])
            start = end
        xored = array("Q")
        xored.frombytes(b"".join(chunks))
        if _BIG_ENDIAN:
            xored.byteswap()
        column = array("d")
        column.frombytes(
            (int.from_bytes(xored.tobytes(), "little") ^ _float_bits(what, bases)).to_bytes(
                8 * count, "little"
            )
        )
        return column

    def locations(
        self, what: str, count: int, bases: Optional[Sequence[float]] = None
    ) -> List[NetworkLocation]:
        """An ``(edge, fraction)`` column pair, the fractions checked at once.

        Given *bases*, the fractions were XORed with them (flag bit 2).
        """
        edges = self.ints(what, count)
        if bases is None:
            fractions = self.floats(what, count)
        else:
            fractions = self.xor_floats(what, count, bases)
        if count and not (
            _no_nan(fractions) and min(fractions) >= 0.0 and max(fractions) <= 1.0
        ):
            raise EventLogError(f"batch record: {what} hold a fraction outside [0, 1]")
        # That was NetworkLocation.__post_init__'s one rule, so the instances
        # are filled in directly instead of re-checking it row by row.
        result = []
        for edge_id, fraction in zip(edges, fractions):
            location = _new(NetworkLocation)
            _SET_EDGE_ID(location, edge_id)
            _SET_FRACTION(location, fraction)
            result.append(location)
        return result

    def moves(
        self,
        what: str,
        count: int,
        valid_kinds: bytes,
        current: Optional[Dict[int, NetworkLocation]] = None,
    ):
        """``(ids, kind bytes, old locations, new locations)`` of *count* rows.

        The location lists have one entry per row, None on the side the
        row's kind says is absent — so no row can lack both.  Given
        *current* (id -> location), the record holds no old locations and
        each row's is looked up there.
        """
        ids = self.ints(f"{what} ids", count)
        kinds = bytes(self.take(f"{what} kinds", count))
        if kinds.translate(None, valid_kinds):
            raise EventLogError(f"batch record: unknown {what} update kind")
        sides = kinds.translate(_KIND_ONLY)
        if current is None:
            olds = iter(self.locations(f"{what} old locations", count - sides.count(_APPEAR)))
            old_column = [None if side == _APPEAR else next(olds) for side in sides]
        else:
            try:
                old_column = [
                    None if side == _APPEAR else current[entity_id]
                    for entity_id, side in zip(ids, sides)
                ]
            except KeyError as exc:
                raise EventLogError(
                    f"batch record moves {what} {exc.args[0]}, which the edge table "
                    "does not hold"
                ) from None
        news = iter(self.locations(f"{what} new locations", count - sides.count(_DISAPPEAR)))
        new_column = [None if side == _DISAPPEAR else next(news) for side in sides]
        return ids, kinds, old_column, new_column

    def rows_against(
        self, what: str, count: int, held: Mapping[int, NetworkLocation], holder: str
    ):
        """``(ids, old locations, new locations)`` of *count* flag-bit-2 rows.

        A row's old location is *held*'s (None: an appearance); a row
        without a new location is a disappearance, so *held* must hold it.
        """
        ids = self.ints(f"{what} ids", count)
        has_new = self.bits(f"{what} new-location flags", count)
        olds = [held.get(entity_id) for entity_id in ids]
        bases = [
            0.0 if old is None else old.fraction for old, flag in zip(olds, has_new) if flag
        ]
        news = iter(self.locations(f"{what} new locations", len(bases), bases))
        new_column = [next(news) if flag else None for flag in has_new]
        for entity_id, old, new in zip(ids, olds, new_column):
            if old is None and new is None:
                raise EventLogError(
                    f"batch record removes {what} {entity_id}, which the {holder} "
                    "does not hold"
                )
        return ids, olds, new_column

    def specs(self, count: int) -> list:
        """*count* ``QuerySpec`` rows, built through the validating constructor."""
        from repro.core.queries import QuerySpec

        rows = [
            _SPEC_ROW.unpack(self.take("query spec rows", _SPEC_ROW.size))
            for _ in range(count)
        ]
        points = iter(self.locations("query spec points", sum(row[4] for row in rows)))
        result = []
        for kind, agg, k, radius, n_points in rows:
            if kind >= len(_SPEC_KINDS) or agg >= len(_SPEC_AGGREGATES):
                raise EventLogError(
                    f"batch record: unknown query spec kind {kind} / aggregate {agg}"
                )
            result.append(
                QuerySpec(
                    _SPEC_KINDS[kind],
                    k,
                    radius,
                    tuple(next(points) for _ in range(n_points)),
                    _SPEC_AGGREGATES[agg],
                )
            )
        return result


def _no_nan(column: array) -> bool:
    """True when no value of a float column is NaN (or they are opposite infinities).

    min() and max() compare, and every comparison with a NaN is false, so
    they can step over one; the sum cannot.
    """
    total = sum(column)
    return total == total


def _require_unique(what: str, ids: Sequence[int]) -> None:
    if len(set(ids)) != len(ids):
        raise EventLogError(
            f"batch record is flagged normalized but updates one {what} twice"
        )


def _current_weights(network: RoadNetwork, edge_ids: Sequence[int]) -> array:
    """The network's current weight of every edge in *edge_ids*."""
    columns = network.columns
    edge_index, edge_weight = columns.edge_index, columns.edge_weight
    try:
        return array("d", [edge_weight[edge_index[edge_id]] for edge_id in edge_ids])
    except KeyError as exc:
        raise EventLogError(
            f"batch record updates edge {exc.args[0]}, which the network does not hold"
        ) from None


def decode_batch(
    payload: bytes,
    edge_table: Optional[EdgeTable] = None,
    query_locations: Optional[Mapping[int, NetworkLocation]] = None,
) -> UpdateBatch:
    """Rebuild an :class:`UpdateBatch` from :func:`encode_batch` output.

    Nothing in *payload* is trusted: every count is bounded by the bytes
    that remain before anything is allocated for it, and every rule the
    update classes enforce at construction — fractions in [0, 1], positive
    finite new weights, a location on at least one side, known kinds, valid
    query specs — is enforced here as well, on the whole column where a
    column can be checked at once and per row otherwise.  A record flagged
    normalized must also update no entity twice and hold no no-op edge
    update; the decoded batch then carries the mark, so
    :meth:`UpdateBatch.net` returns it unchanged.

    Args:
        payload: the record (any bytes-like).
        edge_table: the table a record written with one (header flag bit
            1) is decoded against — in the state it had when the record
            was written, i.e. before the batch is applied.  Its objects'
            locations and its network's weights fill in the old values
            the record leaves out.  A record without the flag ignores it.
        query_locations: the applied query map a record written with one
            (header flag bit 2) is decoded against, in the same pre-batch
            state.  It fills in the query old locations, tells an
            appearance (an id the table or map lacks) from a move, and
            holds the old fractions the new ones were XORed with.  A
            record without flag bit 2 ignores it.

    Raises:
        EventLogError: if the payload is truncated, has trailing bytes, is
            not a batch record at all, was written by another codec version
            (a version-1 pickle payload is named as such, never unpickled),
            or holds a value the update classes would refuse; or if it
            leaves its old values out and *edge_table* (or, for flag bit 2,
            *query_locations*) is missing or does not hold an object, query
            or edge the record names.

    Example::

        batch = decode_batch(payload)
        server.apply_updates(batch)
    """
    try:
        view = memoryview(payload).cast("B")
    except TypeError as exc:
        raise EventLogError(f"a batch payload is bytes, not {type(payload).__name__}") from exc
    if len(view) and view[0] == _PICKLE_PROTO_OPCODE:
        raise EventLogError(
            "batch payload is a version-1 (pickle) record; this library reads "
            "versions 2 and 3 only — finish that log on the release that wrote "
            "it, or start a fresh data directory"
        )
    reader = _RecordReader(view)
    magic, version, flags, timestamp, n_objects, n_queries, n_edges = _RECORD_HEADER.unpack(
        reader.take("header", _RECORD_HEADER.size)
    )
    if magic != _RECORD_MAGIC:
        raise EventLogError(f"not a batch record: bad magic {magic!r}")
    if version not in _READ_VERSIONS:
        raise EventLogError(
            f"unsupported batch codec version {version} "
            "(this library reads versions 2 and 3)"
        )
    if flags & ~(_FLAG_NORMALIZED | _FLAG_OLD_FROM_TABLE | _FLAG_DELTA):
        raise EventLogError(f"batch record has unknown flag bits {flags:#04x}")
    normalized = bool(flags & _FLAG_NORMALIZED)
    from_table = bool(flags & _FLAG_OLD_FROM_TABLE)
    delta = bool(flags & _FLAG_DELTA)
    if delta and not from_table:
        raise EventLogError(
            f"batch record has flag bit {_FLAG_DELTA:#04x} without {_FLAG_OLD_FROM_TABLE:#04x}"
        )
    if from_table and edge_table is None:
        raise EventLogError(
            f"batch record has flag bit {_FLAG_OLD_FROM_TABLE:#04x} (old values left "
            "out): decode it against the edge table it was written from"
        )
    if delta and query_locations is None:
        raise EventLogError(
            f"batch record has flag bit {_FLAG_DELTA:#04x} (query old locations left "
            "out): decode it against the query map it was written from"
        )

    object_updates: List[ObjectUpdate] = []
    if n_objects:
        if delta:
            ids, olds, news = reader.rows_against(
                "object", n_objects, edge_table.locations, "edge table"
            )
        else:
            ids, _, olds, news = reader.moves(
                "object", n_objects, _OBJECT_KINDS, edge_table.locations if from_table else None
            )
        if normalized:
            _require_unique("object", ids)
        # moves() guarantees a location on one side, which is all that
        # ObjectUpdate.__post_init__ asks for.
        for object_id, old, new in zip(ids, olds, news):
            update = _new(ObjectUpdate)
            _SET_OBJECT_ID(update, object_id)
            _SET_OLD_LOCATION(update, old)
            _SET_NEW_LOCATION(update, new)
            object_updates.append(update)

    query_updates: List[QueryUpdate] = []
    if n_queries:
        if delta:
            ids, olds, news = reader.rows_against(
                "query", n_queries, query_locations, "query map"
            )
            carries = reader.bits("query k flags", n_queries)
            specs = iter(reader.bits("query spec flags", carries.count(1)))
            k_kinds = [
                (_K_SPEC if next(specs) else _K_INT) if carry else _K_NONE for carry in carries
            ]
        else:
            ids, kinds, olds, news = reader.moves("query", n_queries, _QUERY_KINDS)
            k_kinds = [kind >> _K_SHIFT for kind in kinds]
        if normalized:
            _require_unique("query", ids)
        try:
            int_ks = iter(reader.ints("query k", k_kinds.count(_K_INT)))
            specs = iter(reader.specs(k_kinds.count(_K_SPEC)))
            # Few rows, and the constructor derives .spec: no shortcut here.
            for query_id, k_kind, old, new in zip(ids, k_kinds, olds, news):
                k = None if k_kind == _K_NONE else next(int_ks if k_kind == _K_INT else specs)
                query_updates.append(QueryUpdate(query_id, old, new, k))
        except (InvalidQueryError, SimulationError) as exc:  # QuerySpec, QueryUpdate
            raise EventLogError(f"batch record holds an invalid query update: {exc}") from exc

    edge_updates: List[EdgeWeightUpdate] = []
    if n_edges:
        ids = reader.ints("edge ids", n_edges)
        if from_table:
            old_weights = _current_weights(edge_table.network, ids)
        else:
            old_weights = reader.floats("old weights", n_edges)
        if delta:
            new_weights = reader.xor_floats("new weights", n_edges, old_weights)
        else:
            new_weights = reader.floats("new weights", n_edges)
        # EdgeWeightUpdate.__post_init__ on the whole column.
        if not (
            _no_nan(new_weights)
            and min(new_weights) > 0.0
            and max(new_weights) < float("inf")
        ):
            raise EventLogError(
                "batch record holds a new edge weight that is not a positive finite number"
            )
        if normalized:
            _require_unique("edge", ids)
            if any(map(float.__eq__, old_weights, new_weights)):
                raise EventLogError(
                    "batch record is flagged normalized but holds a no-op edge update"
                )
        for edge_id, old_weight, new_weight in zip(ids, old_weights, new_weights):
            update = _new(EdgeWeightUpdate)
            _SET_WEIGHT_EDGE_ID(update, edge_id)
            _SET_OLD_WEIGHT(update, old_weight)
            _SET_NEW_WEIGHT(update, new_weight)
            edge_updates.append(update)

    if reader.remaining:
        raise EventLogError(f"batch record has {reader.remaining} trailing bytes")
    batch = UpdateBatch(timestamp, object_updates, query_updates, edge_updates)
    return batch._mark_net() if normalized else batch


def apply_batch(network: RoadNetwork, edge_table: EdgeTable, batch: UpdateBatch) -> None:
    """Apply a batch to the shared network and edge table (exactly once).

    Edge updates set the new weights; object updates insert / move / remove
    objects in the edge table.  Query updates are *not* applied here because
    query positions are algorithm state, not shared state.

    Example::

        apply_batch(network, edge_table, batch.normalized())
        for monitor in monitors:               # every monitor, same input
            monitor.process_batch(batch)
    """
    for edge_update in batch.edge_updates:
        network.set_edge_weight(edge_update.edge_id, edge_update.new_weight)
    for object_update in batch.object_updates:
        if object_update.is_insertion:
            assert object_update.new_location is not None
            edge_table.insert_object(object_update.object_id, object_update.new_location)
        elif object_update.is_deletion:
            edge_table.remove_object(object_update.object_id)
        else:
            assert object_update.new_location is not None
            edge_table.move_object(object_update.object_id, object_update.new_location)
