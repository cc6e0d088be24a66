"""Rewrite the object columns of a server snapshot, everything else kept.

Tests that feed ``load_snapshot`` / ``restore_server`` object columns the
encoder would never write — in another order, or with a duplicate id — go
through :func:`rewrite_object_columns`, which follows the dynamic section's
documented layout (docs/service.md): header, weight column, object ids,
object edges, object fractions, then the monitor pickle.
"""

from __future__ import annotations

import io
from array import array

from repro.core.server import _DYNAMIC_HEADER
from repro.network.record import (
    ColumnReader,
    decode_network,
    write_float_column,
    write_int_column,
)


def rewrite_object_columns(blob: bytes, rewrite) -> bytes:
    """*blob* with its ``(ids, edges, fractions)`` replaced by ``rewrite(rows)``.

    *rows* is the list of ``(object id, edge id, fraction)`` in column order;
    *rewrite* returns the rows to write instead (the header's object count
    is kept, so changing the number of rows makes the section inconsistent).
    """
    _, end = decode_network(blob)
    reader = ColumnReader(memoryview(blob)[end:])
    header = reader.take("header", _DYNAMIC_HEADER.size)
    *_, edge_count, object_count = _DYNAMIC_HEADER.unpack(header)
    weights = reader.take("weights", 8 * edge_count)
    rows = list(
        zip(
            reader.ints("ids", object_count),
            reader.ints("edges", object_count),
            reader.floats("fractions", object_count),
        )
    )
    rows = list(rewrite(rows))
    out = io.BytesIO()
    out.write(blob[:end])
    out.write(header)
    out.write(weights)
    write_int_column(out, "ids", lambda: (row[0] for row in rows))
    write_int_column(out, "edges", lambda: (row[1] for row in rows))
    write_float_column(out, array("d", [row[2] for row in rows]))
    out.write(memoryview(blob)[end + reader.offset :])
    return out.getvalue()
