"""Blocking-socket client for the streaming service.

:class:`ServiceClient` speaks the frame protocol of
:mod:`repro.service.protocol` over one TCP connection.  Requests are
synchronous; pushed ``("delta", ...)`` frames that arrive while waiting
for a reply are queued and retrieved with :meth:`ServiceClient.poll_delta`
— so a subscribed client can interleave updates, ticks, and delta
consumption on a single connection.
"""

from __future__ import annotations

import collections
import socket
from typing import Any, Dict, Optional, Tuple

from repro.core.events import UpdateBatch, encode_batch
from repro.exceptions import ServiceError
from repro.service.protocol import recv_frame, send_frame


class ServiceClient:
    """Synchronous client connection to a :class:`StreamingService`.

    Error replies are re-raised locally as :class:`ServiceError` carrying
    the server-side exception type (as ``remote_type``) and message.

    Example::

        client = ServiceClient(host, port)
        client.add_object(1, 120.0, 45.0)
        client.add_query(100, 80.0, 60.0, k=4)
        report = client.tick()
        print(client.results()[100].neighbors)
        client.close()
    """

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0) -> None:
        """Connect to the service at ``host:port``.

        Args:
            host: service host.
            port: service port.
            timeout: socket timeout in seconds for every blocking operation
                (``None`` waits forever).
        """
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._deltas: "collections.deque" = collections.deque()
        self._closed = False

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def request(self, *request: Any) -> Any:
        """Send one ``(verb, *args)`` request and return its ``ok`` value.

        Delta frames that arrive before the reply are queued for
        :meth:`poll_delta` rather than dropped.
        """
        if self._closed:
            raise ServiceError("client connection is closed")
        send_frame(self._sock, tuple(request))
        while True:
            message = recv_frame(self._sock)
            if isinstance(message, tuple) and message and message[0] == "delta":
                self._deltas.append((message[1], message[2]))
                continue
            if not isinstance(message, tuple) or not message:
                raise ServiceError(f"malformed reply frame: {message!r}")
            if message[0] == "ok":
                return message[1]
            if message[0] == "error":
                raise ServiceError(f"{message[1]}: {message[2]}", remote_type=message[1])
            raise ServiceError(f"unexpected reply frame: {message!r}")

    def poll_delta(
        self, timeout: Optional[float] = 0.0
    ) -> Optional[Tuple[int, Dict[int, Any]]]:
        """Next queued ``(timestamp, changes)`` delta, or ``None`` on timeout.

        With the default ``timeout=0.0`` only already-queued deltas are
        returned; a positive timeout waits up to that long for one to
        arrive on the socket.  Requires a prior :meth:`subscribe`.
        """
        if self._deltas:
            return self._deltas.popleft()
        if timeout == 0.0:
            return None
        previous = self._sock.gettimeout()
        self._sock.settimeout(timeout)
        try:
            message = recv_frame(self._sock)
        except (socket.timeout, TimeoutError):
            return None
        finally:
            self._sock.settimeout(previous)
        if isinstance(message, tuple) and message and message[0] == "delta":
            return (message[1], message[2])
        raise ServiceError(f"expected a delta frame, got {message!r}")

    # ------------------------------------------------------------------
    # request vocabulary
    # ------------------------------------------------------------------
    def ping(self) -> str:
        """Liveness check; returns ``"pong"``."""
        return self.request("ping")

    def timestamp(self) -> int:
        """The service's next-tick timestamp."""
        return self.request("timestamp")

    def add_object(self, object_id: int, x: float, y: float):
        """Stream an object appearance; returns the snapped location."""
        return self.request("add_object", object_id, x, y)

    def move_object(self, object_id: int, x: float, y: float):
        """Stream an object movement; returns the snapped location."""
        return self.request("move_object", object_id, x, y)

    def remove_object(self, object_id: int) -> bool:
        """Stream an object disappearance."""
        return self.request("remove_object", object_id)

    def add_query(self, query_id: int, x: float, y: float, k) -> Any:
        """Install a continuous query (``k``: int or QuerySpec)."""
        return self.request("add_query", query_id, x, y, k)

    def move_query(self, query_id: int, x: float, y: float):
        """Stream a query movement; returns the snapped location."""
        return self.request("move_query", query_id, x, y)

    def remove_query(self, query_id: int) -> bool:
        """Terminate a continuous query."""
        return self.request("remove_query", query_id)

    def update_edge(self, edge_id: int, weight: float) -> bool:
        """Stream an edge-weight change."""
        return self.request("update_edge", edge_id, weight)

    def apply(self, batch: UpdateBatch) -> int:
        """Stream a whole :class:`UpdateBatch` in one request."""
        return self.request("apply", encode_batch(batch))

    def tick(self):
        """Fire one tick; returns the :class:`TimestepReport`."""
        return self.request("tick")

    def results(self) -> Dict[int, Any]:
        """Current results of every query."""
        return self.request("results")

    def result(self, query_id: int) -> Any:
        """Current result of one query."""
        return self.request("result", query_id)

    def subscribe(self) -> bool:
        """Start receiving ``("delta", ...)`` pushes on this connection."""
        return self.request("subscribe")

    def unsubscribe(self) -> bool:
        """Stop receiving delta pushes."""
        return self.request("unsubscribe")

    def checkpoint(self) -> int:
        """Force a checkpoint; returns its timestamp."""
        return self.request("checkpoint")

    def stop(self) -> bool:
        """Ask the service to checkpoint and shut down."""
        return self.request("stop")

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        """Enter a context that guarantees :meth:`close` on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the client when the ``with`` block ends."""
        self.close()
