"""Serving paths for the server and monitor sweeps.

A deployed server does not only tick in place: the durable service applies
each batch as the write-ahead record it logged, and a restarted service
continues from a checkpoint.  Every sweep that pins a behaviour of the tick
runs once per path, so a behaviour that holds in process but is lost by a
checkpoint or by the batch record fails under its own name:

* ``direct``: the server ticks itself;
* ``restored``: before every tick the server is replaced by
  ``restore_server(server.snapshot_state())``, so the tick runs on the
  checkpointed monitor, pending buffer and query maps;
* ``replayed``: every tick's net batch is encoded against the edge table,
  as the durable service logs it, and the decoded record is what the
  server applies;
* ``recovered``: the server runs under a
  :class:`~repro.service.durable.DurableMonitoringServer` that is abandoned
  after every tick and recovered from its data directory (the newest
  checkpoint plus the log tail).

Monitor-level sweeps take the first three paths on the monitor itself
(:data:`MONITOR_PATHS`, :func:`process_on_path`).  The ``serve`` and
``monitor_path`` fixtures in ``tests/conftest.py`` parametrize a test over
them.
"""

from __future__ import annotations

import io

from repro.core.events import apply_batch, decode_batch, encode_batch
from repro.core.server import _ReferencePickler, _ReferenceUnpickler, restore_server
from repro.service.durable import DurableMonitoringServer

SERVING_PATHS = ("direct", "restored", "replayed", "recovered")
MONITOR_PATHS = ("direct", "restored", "replayed")

# Small enough that a recovery replays both a checkpoint and a log tail.
_CHECKPOINT_EVERY = 3


class PathServer:
    """A monitoring server whose every tick takes one serving path.

    Everything but :meth:`tick` is delegated to the server the path
    currently holds, which the ``restored`` and ``recovered`` paths replace
    on every tick; read ``network``, ``edge_table`` and ``monitor`` through
    this wrapper, never from references taken before a tick.
    """

    def __init__(self, server, path, data_dir=None):
        if path not in SERVING_PATHS:
            raise ValueError(f"unknown serving path {path!r}")
        self._server = server
        self._path = path
        self._data_dir = data_dir
        self._durable = None
        if path == "recovered":
            self._durable = DurableMonitoringServer(
                server, data_dir, checkpoint_every=_CHECKPOINT_EVERY, sync=False
            )

    def __getattr__(self, name):
        return getattr(self._server, name)

    def tick(self):
        """Process every buffered update as one timestamp, along the path."""
        if self._path == "restored":
            self._server = restore_server(self._server.snapshot_state())
        elif self._path == "replayed":
            batch = self._server.take_pending_batch().net()
            table = self._server.edge_table
            record = decode_batch(encode_batch(batch, table), table)
            return self._server.apply_taken_batch(record)
        elif self._path == "recovered":
            report = self._durable.tick()
            self._durable.log.close()  # abandoned: no final checkpoint
            self._durable = DurableMonitoringServer.recover(
                self._data_dir, checkpoint_every=_CHECKPOINT_EVERY, sync=False
            )
            self._server = self._durable.server
            return report
        return self._server.tick()

    def close(self):
        """Close the durable log (if any) and the server."""
        if self._durable is not None:
            self._durable.close()
        else:
            self._server.close()


def checkpointed_monitor(monitor, network, edge_table):
    """*monitor* as a checkpoint restores it, over the same network and table.

    The monitor goes through the snapshot's own pickler, which writes the
    network and the edge table as references, so the copy shares them.
    """
    buffer = io.BytesIO()
    _ReferencePickler(buffer, network, edge_table).dump(monitor)
    buffer.seek(0)
    return _ReferenceUnpickler(
        buffer, {"network": network, "edge_table": edge_table}
    ).load()


def process_on_path(path, network, edge_table, monitor, batch):
    """Apply *batch* and have *monitor* process it along *path*.

    Returns the monitor to keep using: on the ``restored`` path it is the
    checkpointed copy the batch was processed by.
    """
    if path not in MONITOR_PATHS:
        raise ValueError(f"unknown monitor path {path!r}")
    if path == "restored":
        monitor = checkpointed_monitor(monitor, network, edge_table)
    elif path == "replayed":
        batch = decode_batch(encode_batch(batch.net(), edge_table), edge_table)
    apply_batch(network, edge_table, batch.net())
    monitor.process_batch(batch)
    return monitor
