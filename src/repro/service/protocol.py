"""Wire protocol of the streaming service: length-prefixed pickle frames.

Every message — request, response, or pushed delta — travels as one frame::

    <u32 length> payload

where the payload is a pickled tuple.  Requests are ``(verb, *args)``
tuples; responses are ``("ok", value)`` or ``("error", type_name, text)``;
the server additionally pushes ``("delta", timestamp, changes)`` frames to
subscribed connections after every tick.

Unpickling is restricted: besides plain Python values a frame may name only
the four classes in :data:`FRAME_CLASSES`, so a frame cannot make the
receiver import or call anything else.  (An ``apply`` request carries its
batch as :func:`~repro.core.events.encode_batch` bytes, which involve no
pickle at all.)

Both an asyncio flavor (used by :class:`~repro.service.server.StreamingService`)
and a blocking-socket flavor (used by :class:`~repro.service.client.ServiceClient`)
are provided over the same framing.
"""

from __future__ import annotations

import asyncio
import io
import pickle
import socket
import struct
from typing import Any

from repro.core.base import TimestepReport
from repro.core.queries import QuerySpec
from repro.core.results import KnnResult
from repro.exceptions import FrameError, ServiceError
from repro.network.graph import NetworkLocation

_LENGTH = struct.Struct("<I")

#: Upper bound on a single frame's payload (64 MiB) — a sanity check that
#: turns a desynchronized or hostile stream into a typed error instead of
#: an attempt to allocate garbage lengths.
MAX_FRAME = 64 * 1024 * 1024


def encode_frame(message: Any) -> bytes:
    """Serialize one message to its on-wire frame (length prefix + pickle)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise ServiceError(f"frame of {len(payload)} bytes exceeds MAX_FRAME")
    return _LENGTH.pack(len(payload)) + payload


#: Every class a frame may name, keyed by the ``(module, name)`` its pickle
#: spells; requests, replies and deltas are otherwise built from None,
#: booleans, numbers, strings, bytes, tuples, lists, dicts and sets, which
#: need no lookup to unpickle.
FRAME_CLASSES = {
    (cls.__module__, cls.__qualname__): cls
    for cls in (KnnResult, NetworkLocation, QuerySpec, TimestepReport)
}


class _FrameUnpickler(pickle.Unpickler):
    """Unpickler that resolves the classes of :data:`FRAME_CLASSES` only."""

    def find_class(self, module: str, name: str) -> Any:
        """The class a frame names — looked up in the table, never imported."""
        try:
            return FRAME_CLASSES[module, name]
        except KeyError:
            raise pickle.UnpicklingError(f"frames may not name {module}.{name}") from None


def decode_payload(payload: bytes) -> Any:
    """Inverse of the payload half of :func:`encode_frame`.

    Raises:
        FrameError: if *payload* is not a pickle or names anything outside
            :data:`FRAME_CLASSES` — which is refused before it is imported,
            let alone called.
    """
    try:
        return _FrameUnpickler(io.BytesIO(payload)).load()
    except Exception as exc:
        raise FrameError(f"cannot decode protocol frame: {exc}") from exc


async def read_frame(reader: asyncio.StreamReader) -> Any:
    """Read one frame from an asyncio stream; raises EOFError on clean close."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        raise EOFError("connection closed") from exc
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise ServiceError(f"incoming frame of {length} bytes exceeds MAX_FRAME")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise EOFError("connection closed mid-frame") from exc
    return decode_payload(payload)


async def write_frame(writer: asyncio.StreamWriter, message: Any) -> None:
    """Write one frame to an asyncio stream and drain the transport."""
    writer.write(encode_frame(message))
    await writer.drain()


def _recv_exactly(sock: socket.socket, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError("connection closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Any:
    """Blocking-socket twin of :func:`read_frame`."""
    header = _recv_exactly(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise ServiceError(f"incoming frame of {length} bytes exceeds MAX_FRAME")
    return decode_payload(_recv_exactly(sock, length))


def send_frame(sock: socket.socket, message: Any) -> None:
    """Blocking-socket twin of :func:`write_frame`."""
    sock.sendall(encode_frame(message))
