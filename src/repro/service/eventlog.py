"""Append-only, length-prefixed binary event log with torn-tail repair.

The durability backbone of :mod:`repro.service`: every normalized
:class:`~repro.core.events.UpdateBatch` is appended (and fsynced) *before*
it is applied, so a crash at any instant loses at most updates that were
never acknowledged as ticked.

On-disk format::

    RPEVLOG1                                   # 8-byte file magic
    <u32 length> <u32 crc32(payload)> payload  # record 0
    <u32 length> <u32 crc32(payload)> payload  # record 1
    ...

All integers are little-endian.  Two failure modes are distinguished when a
log is opened or read:

* **Torn tail** — the file ends mid-record (truncated header or payload),
  or the *final* complete record fails its CRC: the classic shape of a
  crash between write and fsync.  This is expected; :class:`EventLog`
  truncates the tail on open and appends from the last valid record.
* **Mid-file corruption** — a CRC mismatch with more data after it.  That
  is not a crash artifact but real damage, and raises
  :class:`~repro.exceptions.EventLogError` instead of silently dropping
  acknowledged history.
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.exceptions import EventLogError

#: First 8 bytes of every event-log file.
MAGIC = b"RPEVLOG1"

_HEADER = struct.Struct("<II")  # (payload length, crc32(payload))


@dataclass(frozen=True)
class LogRecord:
    """One decoded event-log record and where it sits in the file.

    Example::

        for record in scan_event_log("data/events.log").records:
            print(record.start, len(record.payload))
    """

    #: file offset of the record's header
    start: int
    #: file offset just past the record's payload (= next record's start)
    end: int
    #: the record's payload bytes (a :func:`~repro.core.events.encode_batch`
    #: blob in the durable service's logs)
    payload: bytes


@dataclass(frozen=True)
class LogScan:
    """Outcome of scanning an event log from disk.

    Example::

        scan = scan_event_log("data/events.log")
        if scan.torn:
            print(f"torn tail: {scan.file_size - scan.valid_end} bytes")
    """

    #: every valid record, in append order
    records: List[LogRecord]
    #: offset of the end of the last valid record (truncation point)
    valid_end: int
    #: size of the file as scanned
    file_size: int

    @property
    def torn(self) -> bool:
        """True when the file carries a torn (crash-truncated) tail."""
        return self.valid_end < self.file_size


def scan_event_log(
    path: Union[str, os.PathLike], start_offset: Optional[int] = None
) -> LogScan:
    """Read and validate the records of the log at *path*.

    Returns the valid records plus the offset where validity ends; a torn
    tail (see the module docstring) is reported, not raised.

    With *start_offset* — a record boundary, as :attr:`EventLog.offset`
    reports it and a checkpoint stores it — the file is read from there, not
    from its head: the earlier records are neither read nor returned, so the
    cost follows the length of the tail, not the age of the log.  The first
    record that passes its CRC vouches for the offset; when bytes follow the
    offset and none of them does (a tail torn inside its first record, or an
    offset that is no boundary at all), one walk from the head decides which.

    Raises:
        EventLogError: on a bad file magic, mid-file corruption, or a
            *start_offset* that does not fall on a record boundary.

    Example::

        scan = scan_event_log(log_path)
        payloads = [record.payload for record in scan.records]
    """
    path = pathlib.Path(path)
    file_size = path.stat().st_size
    records: List[LogRecord] = []
    with path.open("rb") as stream:
        magic = stream.read(len(MAGIC))
        if magic != MAGIC:
            raise EventLogError(
                f"{path}: bad event-log magic {magic!r} (expected {MAGIC!r})"
            )
        offset = len(MAGIC)
        if start_offset is not None and start_offset > offset:
            if start_offset > file_size:
                raise EventLogError(
                    f"{path}: start offset {start_offset} is not a record "
                    f"boundary (the file holds {file_size} bytes)"
                )
            offset = start_offset
            stream.seek(offset)
        while True:
            header = stream.read(_HEADER.size)
            if not header:
                break  # clean end of file
            if len(header) < _HEADER.size:
                break  # torn header
            length, crc = _HEADER.unpack(header)
            payload = stream.read(length)
            if len(payload) < length:
                break  # torn payload
            end = offset + _HEADER.size + length
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                if end >= file_size:
                    break  # CRC-bad final record: treat as torn
                raise EventLogError(
                    f"{path}: CRC mismatch in record at offset {offset} "
                    f"with {file_size - end} bytes following it — the log is "
                    f"corrupt beyond a torn tail"
                    + (
                        " (or the start offset is not a record boundary)"
                        if offset == start_offset
                        else ""
                    )
                )
            records.append(LogRecord(start=offset, end=end, payload=payload))
            offset = end
    if not records and len(MAGIC) < offset < file_size:
        # Bytes follow the start offset and none of them checked out: a torn
        # first record, or an offset inside a record whose garbage "length"
        # runs past the end of the file.  Only the former may be repaired by
        # truncation, and only a walk from the head tells them apart.
        if scan_event_log(path).valid_end != offset:
            raise EventLogError(
                f"{path}: start offset {offset} is not a record boundary"
            )
    return LogScan(records=records, valid_end=offset, file_size=file_size)


def read_event_log(
    path: Union[str, os.PathLike], start_offset: Optional[int] = None
) -> List[bytes]:
    """The payloads of every valid record at *path*, in append order.

    With *start_offset* (a value previously reported by
    :attr:`EventLog.offset` — e.g. the ``log_offset`` stored in a
    checkpoint) only the records from that offset on are read and returned,
    which is exactly the log tail a recovery replays.  A torn tail is
    silently ignored (those records were never acknowledged); mid-file
    corruption raises.

    Raises:
        EventLogError: on a bad magic, mid-file corruption, or a
            *start_offset* that does not fall on a record boundary.

    Example::

        # A durable log's records leave their old values out: decode each
        # against the edge table it was written to, before applying it.
        state = load_initial_state("data")
        for payload in read_event_log("data/events.log"):
            batch = decode_batch(payload, state.edge_table)
            apply_batch(state.network, state.edge_table, batch)
    """
    return [record.payload for record in scan_event_log(path, start_offset).records]


class EventLog:
    """Append handle over one event-log file (write-ahead discipline).

    Opening repairs a torn tail (truncating to the last valid record) and
    positions the write cursor there; a missing file is created with the
    format magic.  :meth:`append` frames the payload, writes it, and — with
    ``sync=True``, the default — fsyncs before returning, so a returned
    offset means the record survives power loss.

    Example::

        with EventLog("data/events.log") as log:
            offset = log.append(encode_batch(batch))
        assert read_event_log("data/events.log")[-1] == encode_batch(batch)
    """

    def __init__(self, path: Union[str, os.PathLike], sync: bool = True) -> None:
        """Open (creating or repairing as needed) the log at *path*.

        Args:
            path: the log file; its parent directory must exist.
            sync: fsync after every append (durable but slower).  Turning
                it off makes a crash able to lose acknowledged records —
                only do so when the log is a capture, not a WAL.
        """
        self._open(path, sync, None)

    @classmethod
    def open_tail(
        cls, path: Union[str, os.PathLike], start_offset: int, sync: bool = True
    ) -> Tuple["EventLog", List[bytes]]:
        """Open the log reading only from *start_offset*; also return that tail.

        What a recovery needs, in one pass over the file: the payloads of
        the records after a checkpoint (to replay) and an append handle
        whose torn tail, if any, has been repaired.  *start_offset* is the
        checkpoint's ``log_offset``; see :func:`scan_event_log` for how it
        is validated.

        Example::

            log, payloads = EventLog.open_tail(log_path, checkpoint_offset)
        """
        log = cls.__new__(cls)
        return log, log._open(path, sync, start_offset)

    def _open(self, path, sync: bool, start_offset: Optional[int]) -> List[bytes]:
        """Create, or scan and repair, the file; returns the payloads scanned."""
        self._path = pathlib.Path(path)
        self._sync = sync
        self._file = None
        payloads: List[bytes] = []
        if self._path.exists() and self._path.stat().st_size > 0:
            scan = scan_event_log(self._path, start_offset)
            if scan.torn:
                with self._path.open("r+b") as stream:
                    stream.truncate(scan.valid_end)
                    stream.flush()
                    os.fsync(stream.fileno())
            self._offset = scan.valid_end
            payloads = [record.payload for record in scan.records]
        elif start_offset is not None and start_offset > len(MAGIC):
            raise EventLogError(
                f"{self._path}: start offset {start_offset} is not a record "
                f"boundary (the log is missing or empty)"
            )
        else:
            with self._path.open("wb") as stream:
                stream.write(MAGIC)
                stream.flush()
                os.fsync(stream.fileno())
            self._offset = len(MAGIC)
        self._file = self._path.open("r+b")
        self._file.seek(self._offset)
        return payloads

    @property
    def path(self) -> pathlib.Path:
        """The log file's path."""
        return self._path

    @property
    def offset(self) -> int:
        """File offset just past the last appended record.

        This is the value a checkpoint stores as ``log_offset``: replaying
        :func:`read_event_log` from it yields exactly the records appended
        after the checkpoint.
        """
        return self._offset

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._file is None

    def _ensure_open(self) -> None:
        if self._file is None:
            raise EventLogError(f"{self._path}: event log is closed")

    def append(self, payload: bytes) -> int:
        """Append one record; returns the offset just past it.

        With ``sync=True`` the record is fsynced before the method returns
        — the write-ahead guarantee callers apply their batch under.
        """
        self._ensure_open()
        record = _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload
        self._file.write(record)
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())
        self._offset += len(record)
        return self._offset

    def sync(self) -> None:
        """Flush and fsync any buffered appends (no-op when ``sync=True``)."""
        self._ensure_open()
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush, fsync and close the file (idempotent)."""
        if self._file is not None:
            try:
                self._file.flush()
                os.fsync(self._file.fileno())
            finally:
                self._file.close()
                self._file = None

    def __enter__(self) -> "EventLog":
        """Enter a context that guarantees :meth:`close` on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the log when the ``with`` block ends."""
        self.close()
