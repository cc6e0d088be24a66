"""Columnar network record: a road network as ``struct`` + ``array`` columns.

The one binary form of a :class:`~repro.network.graph.RoadNetwork` that
leaves the process: the durable service's base file
(:meth:`~repro.core.server.MonitoringServer.write_static_state`) and a shard
worker's network both travel as this record.  Layout, little-endian::

    header   <4s magic "RPNR", u8 version, u64 topology_version,
             u64 weight_version, u32 node count N, u32 edge count E>
    nodes    int column of N ids, then N x float64, then N y float64
    edges    int column of E ids, int columns of E start and E end node
             ids, E base-weight float64, E one-way bytes (0 or 1)

An *int column* is one width byte and then its values at that width: 1, 2,
4 or 8 for the narrowest signed layout that holds every value, or 0 for
ids no 64-bit layout holds, each then a length byte plus that many
little-endian signed bytes; an empty column is no bytes at all.  This
module owns that column layout, the one int-column codec of the library:
a checkpoint's object columns and every int column of the ``RPUB`` batch
record (:mod:`repro.core.events`) are written and read with
:func:`write_int_column` and :class:`ColumnReader` too, at the same
widths.

Rows are in the network's column order, and edges name their endpoints
by node id, so decoding fills the columns in that order: every dense
index and each node's adjacency order come out as they were.

There is no current-weight column: the base holds base weights, and a
checkpoint's dynamic section or a worker's init carries
:meth:`~repro.network.graph.RoadNetwork.weight_column` beside it.

Example::

    blob = encode_network(network)
    clone, end = decode_network(blob)
    assert end == len(blob)
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from typing import BinaryIO, Callable, Iterable, Sequence, Tuple, Type

from repro.exceptions import NetworkError, RecoveryError, ReproError
from repro.network.graph import RoadNetwork

_MAGIC = b"RPNR"
#: Bumped whenever the layout changes, so an older record fails loudly.
_VERSION = 1
#: magic, version, topology_version, weight_version, node count, edge count
_HEADER = struct.Struct("<4sBQQII")

#: ``array`` writes native byte order; the record is little-endian.
_SWAP = sys.byteorder != "little"
#: Width byte of an int column no 64-bit layout holds.
_WIDE = 0
#: Signed typecodes by width, narrowest first.
_INT_TYPECODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def write_float_column(stream: BinaryIO, column: array) -> None:
    """Write a ``float64`` *column*, little-endian.

    On a big-endian host the column is byteswapped in place: pass one the
    caller owns.
    """
    if _SWAP:
        column.byteswap()
    stream.write(column)


def write_int_column(
    stream: BinaryIO,
    what: str,
    values: Callable[[], Iterable[int]],
    *,
    error: Type[ReproError] = NetworkError,
) -> None:
    """Write one int column: its width byte, then every value at that width.

    This is the int column of every binary record in the library: the
    network record, a checkpoint's object columns and the ``RPUB`` batch
    record all write the narrowest of widths 1, 2, 4 and 8 that holds
    every value (0, the per-value layout, when none does).  An empty column
    is no bytes at all.  *values* returns a fresh iterable on each call:
    the widths are tried narrowest first, each on a fresh pass that a value
    too wide for it stops where it stands, usually a few rows in, so no
    list of the values is built and the transient is the column alone.

    Raises:
        error: (:class:`NetworkError` unless given) if a value is not an
            integer or needs more than 255 bytes.
    """
    try:
        for width, typecode in _INT_TYPECODES.items():
            try:
                column = array(typecode, values())
            except OverflowError:
                continue
            if column:
                if _SWAP:
                    column.byteswap()
                stream.write(bytes((width,)))
                stream.write(column)
            return
        stream.write(bytes((_WIDE,)))
        for value in values():
            if not isinstance(value, int):
                raise TypeError(f"{value!r} is not an integer")
            size = (value.bit_length() + 8) // 8
            if size > 255:
                raise OverflowError(f"{value.bit_length()}-bit integer")
            stream.write(bytes((size,)) + value.to_bytes(size, "little", signed=True))
    except (TypeError, OverflowError) as exc:
        raise error(f"cannot encode the {what}: {exc}") from exc


def write_network(network: RoadNetwork, stream: BinaryIO) -> None:
    """Stream *network* to *stream* as one record, one column at a time.

    Only one column is alive at once, so the transient is one column, not a
    copy of the network.  *stream* needs only ``write(bytes-like)``.

    Raises:
        NetworkError: if an id is not an integer or needs more than 255
            bytes.
    """
    stream.write(
        _HEADER.pack(
            _MAGIC,
            _VERSION,
            network.topology_version,
            network.weight_version,
            network.node_count,
            network.edge_count,
        )
    )
    store = network.columns
    node_ids, edge_start, edge_end = store.node_ids, store.edge_start, store.edge_end
    write_int_column(stream, "network's node ids", lambda: node_ids)
    write_float_column(stream, array("d", store.node_x))
    write_float_column(stream, array("d", store.node_y))
    write_int_column(stream, "network's edge ids", lambda: store.edge_ids)
    write_int_column(
        stream, "network's edge starts", lambda: (node_ids[start] for start in edge_start)
    )
    write_int_column(stream, "network's edge ends", lambda: (node_ids[end] for end in edge_end))
    write_float_column(stream, array("d", store.edge_base_weight))
    stream.write(store.edge_oneway)


def encode_network(network: RoadNetwork) -> bytes:
    """*network* as one record (:func:`write_network` into a buffer)."""
    buffer = io.BytesIO()
    write_network(network, buffer)
    return buffer.getvalue()


class ColumnReader:
    """Cursor over columns; every read is bounded by the bytes that remain.

    Reads what :func:`write_int_column` / :func:`write_float_column` wrote.
    Every failure is an *error* (:class:`RecoveryError` unless given)
    naming *record* and the column, so a count the payload cannot hold
    allocates nothing; an int column of an unknown width is one.
    """

    def __init__(
        self,
        payload,
        record: str = "network record",
        *,
        error: Type[ReproError] = RecoveryError,
    ) -> None:
        self._view = memoryview(payload).cast("B")
        self._record = record
        self._error = error
        self.offset = 0

    @property
    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return len(self._view) - self.offset

    def take(self, what: str, size: int) -> memoryview:
        """The next *size* bytes — checked against the payload, not assumed."""
        if size > self.remaining:
            raise self._error(
                f"{self._record} is truncated: {what} needs {size} bytes at "
                f"offset {self.offset}, {self.remaining} remain"
            )
        chunk = self._view[self.offset : self.offset + size]
        self.offset += size
        return chunk

    def _column(self, what: str, typecode: str, count: int) -> array:
        column = array(typecode)
        column.frombytes(self.take(what, column.itemsize * count))
        if _SWAP:
            column.byteswap()
        return column

    def floats(self, what: str, count: int) -> array:
        """A float64 column of *count* values."""
        return self._column(what, "d", count)

    def ints(self, what: str, count: int) -> Sequence[int]:
        """An int column of *count* values, at whatever width it was written."""
        if not count:
            return ()
        width = self.take(what, 1)[0]
        typecode = _INT_TYPECODES.get(width)
        if typecode is not None:
            return self._column(what, typecode, count)
        if width != _WIDE:
            raise self._error(f"{self._record}: {what} have unknown integer width {width}")
        # Every value consumes at least its length byte, so a count the
        # payload cannot hold runs into take()'s check, not into memory.
        values = []
        for _ in range(count):
            size = self.take(what, 1)[0]
            values.append(int.from_bytes(self.take(what, size), "little", signed=True))
        return values


def decode_network(payload) -> Tuple[RoadNetwork, int]:
    """Rebuild the network a record holds; returns it and the record's end.

    *payload* is any bytes-like that starts with a record; whatever follows
    the returned end offset is the caller's.  Nothing in it is trusted:
    every count is bounded by the bytes that remain before anything is
    allocated for it.  The columns go straight into a frozen network
    (:meth:`RoadNetwork.from_columns`, no per-row object), which refuses
    what :meth:`RoadNetwork.add_node` / :meth:`RoadNetwork.add_edge` do:
    duplicate ids, unknown endpoints, self loops and invalid weights.  The
    two version counters are then set to the header's.

    Raises:
        RecoveryError: if *payload* is not a whole, valid record.
    """
    reader = ColumnReader(payload)
    magic, version, topology_version, weight_version, node_count, edge_count = (
        _HEADER.unpack(reader.take("the header", _HEADER.size))
    )
    if magic != _MAGIC:
        raise RecoveryError(f"not a network record: bad magic {bytes(magic)!r}")
    if version != _VERSION:
        raise RecoveryError(
            f"network record version {version} is not supported (this release "
            f"reads version {_VERSION})"
        )
    node_ids = reader.ints("node ids", node_count)
    xs = reader.floats("node x", node_count)
    ys = reader.floats("node y", node_count)
    edge_ids = reader.ints("edge ids", edge_count)
    starts = reader.ints("edge starts", edge_count)
    ends = reader.ints("edge ends", edge_count)
    weights = reader.floats("base weights", edge_count)
    oneway = bytes(reader.take("one-way flags", edge_count))
    if oneway.translate(None, b"\x00\x01"):
        raise RecoveryError("network record: a one-way flag is neither 0 nor 1")
    try:
        network = RoadNetwork.from_columns(
            node_ids, xs, ys, edge_ids, starts, ends, weights, oneway
        )
    except ReproError as exc:
        raise RecoveryError(f"network record holds an invalid network: {exc!r}") from exc
    network._topology_version = topology_version
    network._weight_version = weight_version
    return network, reader.offset
