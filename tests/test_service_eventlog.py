"""Unit tests for the service event log and checkpoint framing.

Covers the length-prefixed CRC record format, torn-tail repair (the crash
shape), mid-file corruption detection, offset bookkeeping, and the batch
codec the log stores.
"""

from __future__ import annotations

import os
import zlib
from array import array

import pytest

from repro import UpdateBatch, decode_batch, encode_batch
from repro.exceptions import EventLogError, RecoveryError
from repro.network.graph import NetworkLocation
from repro.service import eventlog
from repro.service.eventlog import MAGIC, EventLog, read_event_log, scan_event_log


@pytest.fixture
def log_path(tmp_path):
    return tmp_path / "events.log"


# ----------------------------------------------------------------------
# append / read round trips
# ----------------------------------------------------------------------
def test_new_log_is_created_with_magic(log_path):
    with EventLog(log_path) as log:
        assert log.offset == len(MAGIC)
    assert log_path.read_bytes() == MAGIC
    assert read_event_log(log_path) == []


def test_append_read_roundtrip_and_offsets(log_path):
    with EventLog(log_path) as log:
        first = log.append(b"alpha")
        second = log.append(b"")  # empty payloads are legal records
        third = log.append(b"gamma" * 100)
        assert len(MAGIC) < first < second < third == log.offset
    assert read_event_log(log_path) == [b"alpha", b"", b"gamma" * 100]
    # start_offset selects exactly the records appended after it
    assert read_event_log(log_path, start_offset=first) == [b"", b"gamma" * 100]
    assert read_event_log(log_path, start_offset=second) == [b"gamma" * 100]
    assert read_event_log(log_path, start_offset=third) == []


def test_reopen_appends_after_existing_records(log_path):
    with EventLog(log_path) as log:
        log.append(b"one")
    with EventLog(log_path) as log:
        log.append(b"two")
    assert read_event_log(log_path) == [b"one", b"two"]


def test_start_offset_must_be_a_record_boundary(log_path):
    with EventLog(log_path) as log:
        log.append(b"payload")
    with pytest.raises(EventLogError, match="record boundary"):
        read_event_log(log_path, start_offset=len(MAGIC) + 3)


def test_closed_log_refuses_appends(log_path):
    log = EventLog(log_path)
    log.close()
    assert log.closed
    log.close()  # idempotent
    with pytest.raises(EventLogError, match="closed"):
        log.append(b"late")


def test_bad_magic_raises(log_path):
    log_path.write_bytes(b"NOTALOG!" + b"\x00" * 16)
    with pytest.raises(EventLogError, match="magic"):
        read_event_log(log_path)


# ----------------------------------------------------------------------
# torn tails (crash shapes) vs mid-file corruption (real damage)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tail", [b"\x07", b"\x07\x00\x00\x00", b"\x07\x00\x00\x00\xaa\xbb\xcc\xdd\x01\x02"])
def test_torn_tail_is_truncated_on_open(log_path, tail):
    with EventLog(log_path) as log:
        log.append(b"kept")
        valid_end = log.offset
    with log_path.open("ab") as stream:
        stream.write(tail)  # torn header or torn payload
    scan = scan_event_log(log_path)
    assert scan.torn and scan.valid_end == valid_end
    with EventLog(log_path) as log:  # open repairs the tail
        assert log.offset == valid_end
        log.append(b"after-repair")
    assert read_event_log(log_path) == [b"kept", b"after-repair"]


def test_crc_bad_final_record_counts_as_torn(log_path):
    with EventLog(log_path) as log:
        log.append(b"kept")
        valid_end = log.offset
        log.append(b"damaged-final")
    data = bytearray(log_path.read_bytes())
    data[-1] ^= 0xFF  # flip a payload byte of the final record
    log_path.write_bytes(bytes(data))
    scan = scan_event_log(log_path)
    assert scan.torn and scan.valid_end == valid_end
    assert read_event_log(log_path) == [b"kept"]


def test_crc_bad_mid_file_record_raises(log_path):
    with EventLog(log_path) as log:
        first_end = log.append(b"kept")
        log.append(b"will-be-damaged")
        log.append(b"after")
    data = bytearray(log_path.read_bytes())
    data[first_end + 8 + 1] ^= 0xFF  # inside the middle record's payload
    log_path.write_bytes(bytes(data))
    with pytest.raises(EventLogError, match="corrupt"):
        read_event_log(log_path)


def test_truncation_at_every_offset_of_the_final_frame_is_torn(log_path):
    """Byte-exhaustive torn-tail boundary sweep over the last frame.

    The crash shape the repair path exists for: the file ends anywhere
    inside the final record's ``<len, crc32>`` header (1–7 bytes present)
    or its payload.  Every such cut must classify as a torn tail ending at
    the previous record — never as mid-file corruption, never a hang —
    and reopening must repair to exactly that boundary.
    """
    with EventLog(log_path) as log:
        log.append(b"first")
        log.append(b"second")
        prev_end = log.offset
        log.append(b"final-frame-pad")  # 8-byte header + 15-byte payload
    full = log_path.read_bytes()
    assert prev_end < len(full)
    for cut in range(prev_end + 1, len(full)):
        log_path.write_bytes(full[:cut])
        scan = scan_event_log(log_path)
        present = cut - prev_end
        assert scan.torn, f"{present} tail bytes misread as clean"
        assert scan.valid_end == prev_end, (
            f"cut {present} bytes into the final frame: valid_end "
            f"{scan.valid_end}, expected {prev_end}"
        )
        assert [r.payload for r in scan.records] == [b"first", b"second"]
        with EventLog(log_path) as log:  # repair, then keep appending
            assert log.offset == prev_end
            log.append(b"resumed")
        assert read_event_log(log_path) == [b"first", b"second", b"resumed"]
    # Cutting exactly at the previous record's end is a clean file.
    log_path.write_bytes(full[:prev_end])
    scan = scan_event_log(log_path)
    assert not scan.torn and scan.valid_end == prev_end


def test_truncation_inside_the_only_record_repairs_to_genesis(log_path):
    """A log whose single record is torn repairs back to the bare magic."""
    with EventLog(log_path) as log:
        log.append(b"solo")
    full = log_path.read_bytes()
    for cut in range(len(MAGIC) + 1, len(full)):
        log_path.write_bytes(full[:cut])
        scan = scan_event_log(log_path)
        assert scan.torn and scan.valid_end == len(MAGIC)
        assert scan.records == []
        with EventLog(log_path) as log:
            assert log.offset == len(MAGIC)


# ----------------------------------------------------------------------
# recovery reads the tail, not the log
# ----------------------------------------------------------------------
class _CountingZlib:
    """Stands in for the module's ``zlib``: counts the bytes that get CRC'd."""

    def __init__(self):
        self.calls = self.bytes = 0

    def crc32(self, data, *start):
        self.calls += 1
        self.bytes += len(data)
        return zlib.crc32(data, *start)


@pytest.fixture
def long_log(log_path):
    """2,000 records and the offset a checkpoint 3 records from the end holds."""
    with EventLog(log_path, sync=False) as log:
        for index in range(2_000):
            end = log.append(b"record-%04d" % index * 10)
            if index == 1_996:
                checkpoint_offset = end
    return log_path, checkpoint_offset


def test_open_tail_reads_only_the_records_after_the_offset(long_log, monkeypatch):
    log_path, checkpoint_offset = long_log
    counter = _CountingZlib()
    monkeypatch.setattr(eventlog, "zlib", counter)
    tail = [b"record-%04d" % index * 10 for index in (1_997, 1_998, 1_999)]
    assert read_event_log(log_path, start_offset=checkpoint_offset) == tail
    assert (counter.calls, counter.bytes) == (3, 330)
    log, payloads = EventLog.open_tail(log_path, checkpoint_offset)
    with log:
        assert payloads == tail and log.offset == log_path.stat().st_size
        assert counter.calls == 6  # one pass served the replay and the repair check
        log.append(b"resumed")
    assert read_event_log(log_path, start_offset=checkpoint_offset) == tail + [b"resumed"]
    counter.calls = 0
    assert len(read_event_log(log_path)) == 2_001 and counter.calls == 2_001


def test_open_tail_repairs_a_tail_torn_at_every_byte_offset(long_log):
    """Same sweep as the whole-file one, entered at the checkpoint's offset."""
    log_path, checkpoint_offset = long_log
    full = log_path.read_bytes()
    record = 8 + 110
    for kept in (2, 0):  # valid records between the offset and the tear
        boundary = checkpoint_offset + kept * record
        for cut in range(boundary + 1, boundary + record):
            log_path.write_bytes(full[:cut])
            log, payloads = EventLog.open_tail(log_path, checkpoint_offset)
            with log:
                assert len(payloads) == kept and log.offset == boundary
            assert log_path.stat().st_size == boundary


def test_an_offset_that_is_no_record_boundary_is_refused_not_repaired(long_log):
    log_path, checkpoint_offset = long_log
    size = log_path.stat().st_size
    for offset in (
        checkpoint_offset + 1,   # garbage header whose "length" stays inside the file
        checkpoint_offset - 3,
        size - 5,                # fewer than 8 bytes left: would read as a torn header
        size - 60,               # inside the last record: "length" runs past the end
        size + 1,                # beyond the file
    ):
        with pytest.raises(EventLogError, match="record boundary"):
            EventLog.open_tail(log_path, offset)
        with pytest.raises(EventLogError, match="record boundary"):
            read_event_log(log_path, start_offset=offset)
        assert log_path.stat().st_size == size  # nothing was truncated


def test_open_tail_on_a_missing_log(log_path):
    with pytest.raises(EventLogError, match="record boundary"):
        EventLog.open_tail(log_path, 500)
    log, payloads = EventLog.open_tail(log_path, len(MAGIC))  # nothing was ever logged
    with log:
        assert payloads == [] and log.offset == len(MAGIC)


def test_sync_flag_controls_buffering_not_correctness(log_path):
    with EventLog(log_path, sync=False) as log:
        log.append(b"buffered")
        log.sync()  # explicit fsync path
    assert read_event_log(log_path) == [b"buffered"]


# ----------------------------------------------------------------------
# batch codec (what the log stores)
# ----------------------------------------------------------------------
def test_encode_decode_batch_roundtrip():
    batch = UpdateBatch(timestamp=7)
    batch.add_object_move(1, NetworkLocation(0, 0.25), NetworkLocation(1, 0.75))
    batch.add_query_move(100, NetworkLocation(2, 0.5), NetworkLocation(2, 0.6))
    batch.add_edge_change(3, 10.0, 12.5)
    clone = decode_batch(encode_batch(batch))
    assert clone.timestamp == 7
    assert clone.object_updates == batch.object_updates
    assert clone.query_updates == batch.query_updates
    assert clone.edge_updates == batch.edge_updates
    # determinism: identical batches encode to identical bytes
    assert encode_batch(batch) == encode_batch(clone)


def test_decode_batch_rejects_garbage_and_bad_versions():
    with pytest.raises(EventLogError):
        decode_batch(b"not a pickle")
    import pickle

    bad_version = pickle.dumps((999, 0, [], [], []))
    with pytest.raises(EventLogError, match="version"):
        decode_batch(bad_version)


# ----------------------------------------------------------------------
# checkpoint framing
# ----------------------------------------------------------------------
def test_checkpoint_write_read_roundtrip(tmp_path):
    from repro.service.durable import _read_checkpoint, _write_checkpoint

    path = _write_checkpoint(tmp_path, 12, 345, 7, b"state-blob")
    assert path.name == "ckpt-0000000012.bin"
    assert path.read_bytes()[:8] == b"RPCKPT05"
    record = _read_checkpoint(path)
    assert record == {
        "timestamp": 12, "log_offset": 345, "base_version": 7, "state": b"state-blob"
    }


def test_frame_length_counts_bytes_not_items(tmp_path):
    """A payload streamed as typed ``array`` columns reads back whole.

    The frame writer once added ``len(data)`` to the payload length, which
    for an ``array`` is its item count: two float64 values recorded 2 bytes
    for 16 written, and the frame failed its CRC on the way back.
    """
    from repro.service.durable import _read_frame, _write_frame

    columns = [array("d", [1.0, 2.0]), array("h", [3, -4, 5]), b"tail"]

    def write_payload(stream):
        for column in columns:
            stream.write(column)

    path = tmp_path / "frame.bin"
    _write_frame(path, write_payload)
    assert bytes(_read_frame(path)) == b"".join(bytes(column) for column in columns)


def test_torn_checkpoint_is_detected(tmp_path):
    from repro.service.durable import _read_checkpoint, _write_checkpoint

    path = _write_checkpoint(tmp_path, 3, 99, 0, b"x" * 64)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # crash mid-write
    with pytest.raises(RecoveryError, match="truncated"):
        _read_checkpoint(path)
    path.write_bytes(data[:12])  # not even a whole header
    with pytest.raises(RecoveryError, match="truncated"):
        _read_checkpoint(path)
    path.write_bytes(b"WRONGMAG" + data[8:])
    with pytest.raises(RecoveryError, match="magic"):
        _read_checkpoint(path)
    path.write_bytes(b"RPCKPT01" + data[8:])  # the retired whole-graph format
    with pytest.raises(RecoveryError, match="RPCKPT01"):
        _read_checkpoint(path)
    flipped = bytearray(data)
    flipped[-1] ^= 0xFF
    path.write_bytes(bytes(flipped))
    with pytest.raises(RecoveryError, match="CRC"):
        _read_checkpoint(path)


def test_checkpoint_replace_is_atomic_no_tmp_left_behind(tmp_path):
    from repro.service.durable import _write_checkpoint

    _write_checkpoint(tmp_path, 1, 10, 0, b"blob")
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["ckpt-0000000001.bin"]
    assert not list(tmp_path.glob("*.tmp"))


def test_fsync_is_called_on_append(log_path, monkeypatch):
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
    with EventLog(log_path, sync=True) as log:
        calls.clear()
        log.append(b"durable")
        assert calls, "sync=True append must fsync before returning"
