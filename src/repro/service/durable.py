"""Durable wrapper around a monitoring server: write-ahead log + checkpoints.

:class:`DurableMonitoringServer` composes any
:class:`~repro.core.server.MonitoringServer` (in-process or sharded) with an
:class:`~repro.service.eventlog.EventLog` and a checkpoint directory:

* every :meth:`~DurableMonitoringServer.tick` detaches the pending batch,
  appends its normalized encoding to the fsynced log, and only then applies
  it — the write-ahead discipline.  A batch that fails to encode or append
  fails the server closed, as a later tick would leave a gap in the log;
* the state no tick can change (network topology, geometry, base weights)
  is written **once**, as the *base* file, before the genesis checkpoint
  (the spatial index is not stored: a recovered server derives it from the
  network on its first snap); every ``checkpoint_every`` ticks (and on
  demand) a *checkpoint* stores only what ticks do change — weight and object
  columns plus the monitor — together with the log offset it corresponds
  to and the base it belongs to;
* :meth:`~DurableMonitoringServer.recover` restores the newest valid
  checkpoint over its base and replays the log tail from the recorded
  offset, arriving at results byte-identical to an uninterrupted run.

Durability boundary: updates that were *ingested but never ticked* are not
durable (they live only in the pending buffer) unless a checkpoint happened
to capture them.  Recovery therefore discards any restored pending buffer
whenever logged batches remain to replay — the first replayed batch is a
superset of that buffer, so nothing acknowledged as *ticked* is ever lost
or double-applied.

Files live under ``<data_dir>/checkpoints/``: ``base-<topology_version>.bin``
and ``ckpt-<timestamp>.bin``.  Each is one frame — magic, payload length,
CRC — written to a ``.tmp`` name, fsynced and renamed, so a partially
written file (crash mid-write) is detected and, for a checkpoint, skipped in
favor of the previous one.  A server's topology is frozen, so there is one
base; it is named by the ``topology_version`` every checkpoint records.
"""

from __future__ import annotations

import os
import pathlib
import signal
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple, Union

from repro.core.base import TimestepReport
from repro.core.events import decode_batch, encode_batch
from repro.core.server import MonitoringServer, load_snapshot, restore_server
from repro.exceptions import EventLogError, RecoveryError, ServerFailedError, ServiceError
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.service.eventlog import EventLog

#: First 8 bytes of every base and checkpoint file.
CHECKPOINT_MAGIC = b"RPCKPT05"

#: Refused by name: ``RPCKPT01`` (one whole-graph pickle), ``RPCKPT02``
#: (dict-state pickles, which the slotted value classes would misread),
#: ``RPCKPT03`` (a base of two pickles, the second the spatial index) and
#: ``RPCKPT04`` (a base that is one pickle of the network, not a record).
_RETIRED_MAGICS = (b"RPCKPT01", b"RPCKPT02", b"RPCKPT03", b"RPCKPT04")

_FRAME_HEADER = struct.Struct("<8sQI")  # (magic, payload length, crc32(payload))

#: Leads a checkpoint's payload: (timestamp, log offset, base topology version).
_CKPT_META = struct.Struct("<QQQ")

#: Environment variable for deterministic crash injection: when set to an
#: integer T, the process SIGKILLs itself immediately after logging the
#: batch of timestamp T and *before* applying it — the worst-possible crash
#: point recovery must handle.
KILL_AT_ENV = "REPRO_SERVICE_KILL_AT"

_LOG_FILENAME = "events.log"
_CHECKPOINT_DIRNAME = "checkpoints"


def _checkpoint_path(directory: pathlib.Path, timestamp: int) -> pathlib.Path:
    return directory / f"ckpt-{timestamp:010d}.bin"


def _base_path(directory: pathlib.Path, topology_version: int) -> pathlib.Path:
    return directory / f"base-{topology_version:010d}.bin"


def _list_checkpoints(directory: pathlib.Path) -> List[pathlib.Path]:
    if not directory.is_dir():
        return []
    return sorted(directory.glob("ckpt-*.bin"))


class _CrcWriter:
    """Passes writes through to a stream, keeping their length and CRC."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self.length = 0
        self.crc = 0

    def write(self, data) -> int:
        """Write *data* (any bytes-like) and fold it into the running CRC.

        The length counts bytes, not items: a typed ``array`` column is
        ``itemsize`` bytes per item.
        """
        self.crc = zlib.crc32(data, self.crc)
        self.length += memoryview(data).nbytes
        return self._stream.write(data)


def _write_frame(path: pathlib.Path, write_payload: Callable[[BinaryIO], None]) -> None:
    """Atomically write one framed file: tmp, fsync, rename, directory fsync.

    *write_payload* streams the payload into the writer it is given; the
    header is patched in afterwards, so no copy of the payload is ever
    assembled.
    """
    tmp = path.with_suffix(".tmp")
    with tmp.open("wb") as stream:
        stream.write(bytes(_FRAME_HEADER.size))
        payload = _CrcWriter(stream)
        write_payload(payload)
        stream.seek(0)
        stream.write(_FRAME_HEADER.pack(CHECKPOINT_MAGIC, payload.length, payload.crc))
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)
    # fsync the directory so the rename itself survives power loss
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _read_frame(path: pathlib.Path) -> memoryview:
    """The payload of one framed file; raises RecoveryError on any damage."""
    try:
        data = memoryview(path.read_bytes())
    except FileNotFoundError:
        raise RecoveryError(f"{path}: file is missing") from None
    magic = bytes(data[: len(CHECKPOINT_MAGIC)])
    if magic in _RETIRED_MAGICS:
        raise RecoveryError(
            f"{path}: written in the retired {magic.decode()} format; "
            f"this version reads {CHECKPOINT_MAGIC.decode()} only"
        )
    if magic != CHECKPOINT_MAGIC:
        raise RecoveryError(f"{path}: bad magic")
    if len(data) < _FRAME_HEADER.size:
        raise RecoveryError(f"{path}: truncated header")
    _, length, crc = _FRAME_HEADER.unpack_from(data)
    payload = data[_FRAME_HEADER.size : _FRAME_HEADER.size + length]
    if len(payload) < length:
        raise RecoveryError(f"{path}: truncated payload")
    if zlib.crc32(payload) != crc:
        raise RecoveryError(f"{path}: CRC mismatch")
    return payload


def _write_checkpoint(
    directory: pathlib.Path, timestamp: int, log_offset: int, base_version: int, state
) -> pathlib.Path:
    """Atomically write one framed checkpoint file and fsync it into place."""

    def write_payload(stream: BinaryIO) -> None:
        stream.write(_CKPT_META.pack(timestamp, log_offset, base_version))
        stream.write(state)

    final = _checkpoint_path(directory, timestamp)
    _write_frame(final, write_payload)
    return final


def _read_checkpoint(path: pathlib.Path) -> Dict[str, object]:
    """Decode one checkpoint file; raises RecoveryError on any damage."""
    payload = _read_frame(path)
    if len(payload) < _CKPT_META.size:
        raise RecoveryError(f"{path}: checkpoint is missing its header fields")
    timestamp, log_offset, base_version = _CKPT_META.unpack_from(payload)
    return {
        "timestamp": timestamp,
        "log_offset": log_offset,
        "base_version": base_version,
        "state": payload[_CKPT_META.size :],
    }


def _read_base(directory: pathlib.Path, record: Dict[str, object]) -> memoryview:
    """The static section a decoded checkpoint belongs to."""
    return _read_frame(_base_path(directory, record["base_version"]))


def _maybe_self_kill(timestamp: int) -> None:
    """Crash-injection hook: SIGKILL ourselves at the configured timestamp."""
    target = os.environ.get(KILL_AT_ENV)
    if target is not None and timestamp == int(target):
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class InitialState:
    """The pre-run state captured by a data directory's genesis checkpoint.

    What a differential replay needs to rebuild independent monitors that
    then consume the logged batches: the network and edge table exactly as
    they were before the first logged tick, plus the queries that were
    already *registered* (ticked at least once) at that point — queries
    installed through the log replay themselves arrive as logged
    installation updates.

    Example::

        initial = load_initial_state("service-data")
        print(len(initial.queries), initial.timestamp)
    """

    #: the road network before the first logged tick
    network: RoadNetwork
    #: the edge table (object positions included) before the first logged tick
    edge_table: EdgeTable
    #: query id -> (location, QuerySpec) for queries already registered
    queries: Dict[int, Tuple[NetworkLocation, object]]
    #: the genesis checkpoint's timestamp (the first logged batch's timestamp)
    timestamp: int


def load_initial_state(data_dir: Union[str, os.PathLike]) -> InitialState:
    """Read the genesis (earliest) checkpoint of *data_dir* without respawning.

    Unlike :func:`~repro.core.server.restore_server` this never spawns
    worker processes for a sharded snapshot — it only extracts the network,
    edge table, and registered queries, which is all a differential replay
    (:func:`repro.testing.run_differential_log`) needs to rebuild reference
    monitors from scratch.

    Raises:
        RecoveryError: if the directory holds no readable checkpoint, the
            genesis checkpoint or its base is in a retired format, or the
            genesis checkpoint has an unknown snapshot kind.

    Example::

        initial = load_initial_state("service-data")
        report = run_differential_log("service-data")
    """
    directory = pathlib.Path(data_dir) / _CHECKPOINT_DIRNAME
    paths = _list_checkpoints(directory)
    if not paths:
        raise RecoveryError(f"{data_dir}: no checkpoints found")
    record = _read_checkpoint(paths[0])  # lowest timestamp = genesis
    state = load_snapshot(record["state"], _read_base(directory, record))
    kind = state["kind"]
    queries: Dict[int, Tuple[NetworkLocation, object]] = {}
    if kind == "in-process":
        monitor = state["monitor"]
        for query_id in sorted(monitor.query_ids()):
            queries[query_id] = (
                monitor.query_location(query_id),
                monitor.query_spec(query_id),
            )
    else:  # "sharded": load_snapshot refuses any other kind
        # The coordinator-level maps cover every registered query.  The
        # shard blobs alone would miss graph-partitioned boundary queries,
        # which are evaluated by the coordinator and therefore registered
        # in no shard's monitor.
        for query_id, location in state["query_locations"].items():
            queries[query_id] = (location, state["query_specs"][query_id])
    return InitialState(
        network=state["network"],
        edge_table=state["edge_table"],
        queries=queries,
        timestamp=record["timestamp"],
    )


class DurableMonitoringServer:
    """A monitoring server with a write-ahead event log and crash recovery.

    Wraps any :class:`~repro.core.server.MonitoringServer` (pass
    ``workers=N`` to the wrapped server for a sharded fleet).  Ingestion
    still goes through the wrapped server (reachable as :attr:`server`);
    only :meth:`tick` must go through this wrapper so every processed batch
    hits the log before it is applied.

    Example::

        server = MonitoringServer(network, edge_table, algorithm="IMA")
        durable = DurableMonitoringServer(server, "service-data")
        server.add_object(1, location)
        durable.tick()                      # logged, then applied
        durable.close()
        recovered = DurableMonitoringServer.recover("service-data")
        assert recovered.results() == {}
    """

    def __init__(
        self,
        server: MonitoringServer,
        data_dir: Union[str, os.PathLike],
        *,
        checkpoint_every: Optional[int] = 16,
        sync: bool = True,
        keep_checkpoints: int = 4,
    ) -> None:
        """Start a *fresh* durable server over an empty-or-new data directory.

        Writes the base and then the genesis checkpoint immediately, so a
        crash before the first tick already recovers to the initial state.
        Refuses a data directory that has checkpoints: that directory
        belongs to an earlier run and must go through :meth:`recover` (or
        be deleted) — silently re-initializing it would fork its history.
        A base with no checkpoint beside it is an initialisation that was
        killed before its genesis checkpoint, and is overwritten.

        Args:
            server: the wrapped (in-process or sharded) monitoring server.
            data_dir: directory for the event log and checkpoints
                (created if missing).
            checkpoint_every: write a checkpoint automatically every this
                many ticks; ``None`` disables automatic checkpoints.
            sync: fsync the event log on every append (the write-ahead
                guarantee); pass False only for capture-only logs.
            keep_checkpoints: how many of the newest checkpoints to retain
                when pruning (the genesis checkpoint is always kept — it
                anchors full-log replays).
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ServiceError(
                f"checkpoint_every must be a positive integer or None, "
                f"got {checkpoint_every!r}"
            )
        if keep_checkpoints < 1:
            raise ServiceError(
                f"keep_checkpoints must be at least 1, got {keep_checkpoints!r}"
            )
        self._server = server
        self._data_dir = pathlib.Path(data_dir)
        self._checkpoint_dir = self._data_dir / _CHECKPOINT_DIRNAME
        self._checkpoint_every = checkpoint_every
        self._keep_checkpoints = keep_checkpoints
        self._ticks_since_checkpoint = 0
        self._recovered_ticks = 0
        self._closed = False
        self._failed: Optional[str] = None
        existing = _list_checkpoints(self._checkpoint_dir)
        if existing:
            raise ServiceError(
                f"{self._data_dir}: data directory already holds "
                f"{len(existing)} checkpoint(s); use "
                f"DurableMonitoringServer.recover() to resume it"
            )
        self._data_dir.mkdir(parents=True, exist_ok=True)
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._log = EventLog(self._data_dir / _LOG_FILENAME, sync=sync)
        # The server froze the topology, so the static section is written
        # once, before the genesis checkpoint that needs it.
        _write_frame(
            _base_path(self._checkpoint_dir, server.network.topology_version),
            server.write_static_state,
        )
        self.checkpoint()  # genesis

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def server(self) -> MonitoringServer:
        """The wrapped monitoring server (use it for ingestion and queries)."""
        return self._server

    @property
    def data_dir(self) -> pathlib.Path:
        """The data directory holding the event log and checkpoints."""
        return self._data_dir

    @property
    def log(self) -> EventLog:
        """The underlying write-ahead event log."""
        return self._log

    @property
    def current_timestamp(self) -> int:
        """The wrapped server's next-tick timestamp."""
        return self._server.current_timestamp

    @property
    def recovered_ticks(self) -> int:
        """How many log-tail batches :meth:`recover` replayed (0 when fresh)."""
        return self._recovered_ticks

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def tick(self) -> TimestepReport:
        """Log the pending batch durably, then apply it (one timestamp).

        The write-ahead step: the normalized batch is appended (and, with
        ``sync=True``, fsynced) *before* the monitor sees it, so a crash at
        any later instant replays this tick from the log.  Writes an
        automatic checkpoint every ``checkpoint_every`` ticks.  A batch
        that fails to encode or append fails the server closed (see the
        module docstring); later calls raise :class:`ServerFailedError`.
        """
        self._ensure_not_failed()
        server = self._server
        batch = server.take_pending_batch().net()
        try:
            # Against the table and query map the batch is about to change:
            # the record leaves out the old locations and weights, which
            # replay reads back there.
            self._log.append(
                encode_batch(batch, server.edge_table, server.applied_query_locations)
            )
        except BaseException as exc:
            self._failed = f"{type(exc).__name__}: {exc}"
            self.close()
            raise
        _maybe_self_kill(batch.timestamp)
        # The batch that was logged, not the raw buffer: it carries the
        # normalized mark, so no layer below collapses it a second time.
        report = server.apply_taken_batch(batch)
        self._ticks_since_checkpoint += 1
        if (
            self._checkpoint_every is not None
            and self._ticks_since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()
        return report

    def results(self) -> Dict[int, object]:
        """Current results of every query (after the last tick)."""
        return self._server.results()

    def result_of(self, query_id: int) -> object:
        """Current result of one query (after the last tick)."""
        return self._server.result_of(query_id)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Write a checkpoint of the server's dynamic state; returns its timestamp.

        The checkpoint records the log offset of everything already applied,
        so recovery replays exactly the batches logged after it, and the
        base it must be restored over (the network's frozen
        ``topology_version``).  Old checkpoints beyond ``keep_checkpoints``
        are pruned; the genesis one and the base are always kept.
        """
        self._ensure_not_failed()
        self._log.sync()
        timestamp = self._server.current_timestamp
        _write_checkpoint(
            self._checkpoint_dir,
            timestamp,
            self._log.offset,
            self._server.network.topology_version,
            self._server.snapshot_state(static=False),
        )
        self._ticks_since_checkpoint = 0
        self._prune_checkpoints()
        return timestamp

    def _prune_checkpoints(self) -> None:
        rest = _list_checkpoints(self._checkpoint_dir)[1:]  # genesis is always retained
        for path in rest[: max(0, len(rest) - self._keep_checkpoints)]:
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        data_dir: Union[str, os.PathLike],
        *,
        checkpoint_every: Optional[int] = 16,
        sync: bool = True,
        keep_checkpoints: int = 4,
    ) -> "DurableMonitoringServer":
        """Resume a crashed (or cleanly stopped) durable server.

        Removes ``*.tmp`` files a crash left mid-write, restores the newest
        checkpoint that decodes cleanly over its base (a checkpoint torn by
        the crash is skipped in favor of the previous one), repairs the
        event log's torn tail, discards any non-durable pending buffer the
        checkpoint captured when logged batches remain, and replays the log
        tail tick by tick.  The result is byte-identical to a run that
        never crashed: same results, same timestamp.

        Raises:
            RecoveryError: when no checkpoint restores — each one is torn,
                lacks an intact base, or was written in a retired format
                (``RPCKPT01`` to ``RPCKPT04``) — a restored
                snapshot disagrees with its checkpoint's timestamp, or the
                log tail does not line up with the restored clock.

        Example::

            durable = DurableMonitoringServer.recover("service-data")
            print(durable.recovered_ticks, durable.current_timestamp)
        """
        data_path = pathlib.Path(data_dir)
        directory = data_path / _CHECKPOINT_DIRNAME
        paths = _list_checkpoints(directory)
        if not paths:
            raise RecoveryError(f"{data_path}: no checkpoints to recover from")
        for stale in directory.glob("*.tmp"):
            stale.unlink(missing_ok=True)
        server: Optional[MonitoringServer] = None
        record: Optional[Dict[str, object]] = None
        errors: List[str] = []
        for path in reversed(paths):
            try:
                candidate = _read_checkpoint(path)
                server = restore_server(
                    candidate["state"], _read_base(directory, candidate)
                )
            except RecoveryError as exc:
                errors.append(str(exc))
                continue
            record = candidate
            break
        if server is None or record is None:
            raise RecoveryError(
                f"{data_path}: every checkpoint failed to restore: "
                + "; ".join(errors)
            )
        if server.current_timestamp != record["timestamp"]:
            server.close()
            raise RecoveryError(
                f"restored snapshot is at timestamp {server.current_timestamp} "
                f"but its checkpoint recorded {record['timestamp']}"
            )
        log: Optional[EventLog] = None
        try:
            # One pass from the checkpoint's offset on: it repairs a torn
            # tail and yields the batches to replay; older records stay unread.
            log, payloads = EventLog.open_tail(
                data_path / _LOG_FILENAME, record["log_offset"], sync=sync
            )
            recovered = 0
            if payloads:
                # The checkpoint may have captured ingested-but-unticked
                # updates; the first logged batch after it is a superset of
                # them, so drop the buffer to avoid double application.
                server.discard_pending()
            for payload in payloads:
                try:
                    batch = decode_batch(
                        payload, server.edge_table, server.applied_query_locations
                    )
                except EventLogError as exc:
                    raise RecoveryError(f"cannot replay a logged batch: {exc}") from exc
                if batch.timestamp != server.current_timestamp:
                    raise RecoveryError(
                        f"log replay expected a batch for timestamp "
                        f"{server.current_timestamp}, found {batch.timestamp}"
                    )
                server.apply_updates(batch)
                server.tick()
                recovered += 1
        except BaseException:
            if log is not None:
                log.close()
            server.close()
            raise
        durable = cls.__new__(cls)
        durable._server = server
        durable._data_dir = data_path
        durable._checkpoint_dir = directory
        durable._checkpoint_every = checkpoint_every
        durable._keep_checkpoints = keep_checkpoints
        durable._ticks_since_checkpoint = recovered
        durable._recovered_ticks = recovered
        durable._closed = False
        durable._failed = None
        durable._log = log
        if (
            checkpoint_every is not None
            and durable._ticks_since_checkpoint >= checkpoint_every
        ):
            durable.checkpoint()
        return durable

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_not_failed(self) -> None:
        if self._failed is not None:
            raise ServerFailedError(self._failed)

    def close(self) -> None:
        """Close the event log and the wrapped server (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._log.close()
        finally:
            self._server.close()

    def __enter__(self) -> "DurableMonitoringServer":
        """Enter a context that guarantees :meth:`close` on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the durable server when the ``with`` block ends."""
        self.close()
