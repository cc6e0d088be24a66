"""Asyncio socket front-end over a durable monitoring server.

Clients connect over TCP and exchange length-prefixed pickle frames (see
:mod:`repro.service.protocol`).  Requests are ``(verb, *args)`` tuples:

==================================  ==================================================
request                             reply value (inside ``("ok", value)``)
==================================  ==================================================
``("ping",)``                       ``"pong"``
``("timestamp",)``                  next-tick timestamp
``("add_object", oid, x, y)``       snapped :class:`NetworkLocation`
``("move_object", oid, x, y)``      snapped :class:`NetworkLocation`
``("remove_object", oid)``          ``True``
``("add_query", qid, x, y, k)``     snapped :class:`NetworkLocation` (``k``: int or QuerySpec)
``("move_query", qid, x, y)``       snapped :class:`NetworkLocation`
``("remove_query", qid)``           ``True``
``("update_edge", eid, weight)``    ``True``
``("apply", payload)``              next-tick timestamp (``payload``: encode_batch bytes)
``("tick",)``                       the tick's :class:`TimestepReport`
``("results",)``                    ``{query_id: KnnResult}``
``("result", qid)``                 the query's :class:`KnnResult`
``("subscribe",)``                  ``True`` (this connection now receives deltas)
``("unsubscribe",)``                ``True``
``("checkpoint",)``                 checkpoint timestamp
``("stop",)``                       ``True`` (service checkpoints and shuts down)
==================================  ==================================================

Errors never kill the service: any :class:`~repro.exceptions.ReproError`
(or unexpected exception) raised by a request is returned to that client as
``("error", type_name, message)`` and the connection keeps serving.  So is a
frame that does not decode, or that names a class frames do not carry
(:class:`~repro.exceptions.FrameError`; see :mod:`repro.service.protocol`).

After every tick the service pushes ``("delta", timestamp, changes)`` to
every subscribed connection, where *changes* maps each query whose result
changed to its new result — or to ``None`` when the query terminated this
tick — so clients can follow results watch-mode style without polling.

Ticks fire on demand (the ``tick`` request) and, when ``tick_interval`` is
set, on a wall clock as well; both paths go through the durable wrapper,
so every processed batch is event-logged before it is applied.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
from typing import Any, Dict, Optional, Set, Tuple

from repro.core.events import decode_batch
from repro.exceptions import FrameError, ReproError, ServiceError
from repro.service.durable import DurableMonitoringServer
from repro.service.protocol import read_frame, write_frame


def write_address_file(path, host: str, port: int) -> None:
    """Atomically publish ``"host port"`` so drivers can find a bound service."""
    path = pathlib.Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(f"{host} {port}\n", encoding="utf-8")
    os.replace(tmp, path)


def _error_reply(exc: Exception) -> Tuple[str, str, str]:
    return ("error", type(exc).__name__, str(exc))


class StreamingService:
    """TCP streaming front-end: clients stream updates, deltas stream back.

    Wraps a :class:`~repro.service.durable.DurableMonitoringServer`; every
    tick — client-requested or wall-clock — is write-ahead logged before it
    is applied, and its result deltas are pushed to subscribers.

    Example::

        durable = DurableMonitoringServer(server, "service-data")
        service = StreamingService(durable, port=0)
        asyncio.run(service.run())      # serves until a client sends ("stop",)
    """

    def __init__(
        self,
        durable: DurableMonitoringServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tick_interval: Optional[float] = None,
    ) -> None:
        """Configure (but do not yet bind) the service.

        Args:
            durable: the durable server that owns all monitoring state.
            host: interface to bind.
            port: TCP port; 0 picks a free one (read :attr:`bound_address`).
            tick_interval: seconds between wall-clock ticks; ``None`` means
                ticks fire only on client request.
        """
        if tick_interval is not None and tick_interval <= 0:
            raise ServiceError(
                f"tick_interval must be positive or None, got {tick_interval!r}"
            )
        self._durable = durable
        self._host = host
        self._port = port
        self._tick_interval = tick_interval
        self._subscribers: Set[asyncio.StreamWriter] = set()
        # Every open connection's handler task and writer, so a shutdown can
        # close them all and wait for the handlers to return.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._lock = asyncio.Lock()
        self._stop_event = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._tick_task: Optional[asyncio.Task] = None
        # Live queries as of the last completed tick.  Terminations must be
        # diffed against this, not against query_ids() sampled just before
        # the tick: remove_query() drops the query from the server's live
        # set at ingestion time, so a pre-tick sample already misses it and
        # the ("delta", t, {qid: None}) announcement would never fire.
        self._live_queries: Set[int] = set(durable.server.query_ids())
        #: ``(host, port)`` actually bound, available after :meth:`start`.
        self.bound_address: Optional[Tuple[str, int]] = None

    @property
    def durable(self) -> DurableMonitoringServer:
        """The durable server behind this service."""
        return self._durable

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket and start serving; returns (host, port)."""
        if self._server is not None:
            raise ServiceError("service is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self.bound_address = (sockname[0], sockname[1])
        if self._tick_interval is not None:
            self._tick_task = asyncio.create_task(self._tick_loop())
        return self.bound_address

    async def run(self, address_file=None) -> None:
        """Serve until a client sends ``("stop",)``, then shut down cleanly.

        With *address_file* set, writes ``"host port"`` there (atomically)
        once the socket is bound — the hand-shake the CLI and the
        fault-injection driver use to find a service on an ephemeral port.
        """
        host, port = await self.start()
        if address_file is not None:
            write_address_file(address_file, host, port)
        try:
            await self._stop_event.wait()
        finally:
            await self._shutdown()

    async def stop(self) -> None:
        """Request a graceful shutdown (checkpoint, close log, close server)."""
        self._stop_event.set()

    async def _shutdown(self) -> None:
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing a connection ends its handler's read with EOF; waiting for
        # the handlers leaves no task for asyncio.run to cancel on the way out.
        self._subscribers.clear()
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        if handlers:
            await asyncio.wait(handlers)
        try:
            self._durable.checkpoint()
        finally:
            self._durable.close()

    # ------------------------------------------------------------------
    # ticking
    # ------------------------------------------------------------------
    async def _tick_loop(self) -> None:
        while not self._stop_event.is_set():
            await asyncio.sleep(self._tick_interval)
            try:
                await self._tick_and_broadcast()
            except ReproError:
                # A wall-clock tick can race shutdown (durable already
                # closed); the stop event ends the loop on the next check.
                if self._stop_event.is_set():
                    break
                raise

    async def _tick_and_broadcast(self):
        async with self._lock:
            live_before = self._live_queries
            report = self._durable.tick()
            self._live_queries = set(self._durable.server.query_ids())
            await self._broadcast_delta(report, live_before)
        return report

    async def _broadcast_delta(self, report, live_before) -> None:
        if not self._subscribers:
            return
        live_after = self._live_queries
        changes: Dict[int, Any] = {}
        for query_id in sorted(report.changed_queries):
            if query_id in live_after:
                changes[query_id] = self._durable.server.result_of(query_id)
        for query_id in sorted(live_before - live_after):
            changes[query_id] = None  # terminated this tick
        message = ("delta", report.timestamp, changes)
        dead = []
        for writer in list(self._subscribers):
            try:
                await write_frame(writer, message)
            except Exception:
                dead.append(writer)
        for writer in dead:
            self._subscribers.discard(writer)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        stop_requested = False
        self._connections[asyncio.current_task()] = writer
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except (EOFError, ConnectionError):
                    break
                except FrameError as exc:
                    # The frame was read whole, so the stream is still in
                    # step: refuse this one request and keep serving.
                    request, response = None, _error_reply(exc)
                else:
                    response = await self._dispatch(request, writer)
                try:
                    await write_frame(writer, response)
                except (ConnectionError, BrokenPipeError):
                    break
                if (
                    isinstance(request, tuple)
                    and request
                    and request[0] == "stop"
                    and response[0] == "ok"
                ):
                    stop_requested = True
                    break
        finally:
            del self._connections[asyncio.current_task()]
            self._subscribers.discard(writer)
            writer.close()
            if stop_requested:
                self._stop_event.set()

    async def _dispatch(self, request, writer):
        try:
            if not isinstance(request, tuple) or not request:
                raise ServiceError(f"malformed request frame: {request!r}")
            verb = request[0]
            args = request[1:]
            server = self._durable.server
            if verb == "ping":
                return ("ok", "pong")
            if verb == "timestamp":
                return ("ok", server.current_timestamp)
            if verb == "subscribe":
                self._subscribers.add(writer)
                return ("ok", True)
            if verb == "unsubscribe":
                self._subscribers.discard(writer)
                return ("ok", True)
            if verb == "add_object":
                object_id, x, y = args
                return ("ok", server.add_object_at(object_id, x, y))
            if verb == "move_object":
                object_id, x, y = args
                return ("ok", server.move_object_at(object_id, x, y))
            if verb == "remove_object":
                (object_id,) = args
                server.remove_object(object_id)
                return ("ok", True)
            if verb == "add_query":
                query_id, x, y, k = args
                return ("ok", server.add_query_at(query_id, x, y, k))
            if verb == "move_query":
                query_id, x, y = args
                return ("ok", server.move_query_at(query_id, x, y))
            if verb == "remove_query":
                (query_id,) = args
                server.remove_query(query_id)
                return ("ok", True)
            if verb == "update_edge":
                edge_id, weight = args
                server.update_edge_weight(edge_id, weight)
                return ("ok", True)
            if verb == "apply":
                (payload,) = args
                batch = decode_batch(payload)
                server.apply_updates(batch)
                return ("ok", server.current_timestamp)
            if verb == "tick":
                report = await self._tick_and_broadcast()
                return ("ok", report)
            if verb == "results":
                return ("ok", server.results())
            if verb == "result":
                (query_id,) = args
                return ("ok", server.result_of(query_id))
            if verb == "checkpoint":
                async with self._lock:
                    return ("ok", self._durable.checkpoint())
            if verb == "stop":
                return ("ok", True)
            raise ServiceError(f"unknown request verb {verb!r}")
        except Exception as exc:
            # Typed repro errors and unexpected ones alike go back to the
            # client; the service itself must survive any single request.
            return _error_reply(exc)
