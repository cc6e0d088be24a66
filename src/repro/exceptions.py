"""Exception hierarchy for the road-network CkNN monitoring library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every exception raised by this library.

    Example::

        try:
            server.result_of(missing_query_id)
        except ReproError as exc:   # every library error derives from it
            print(exc)
    """


class NetworkError(ReproError):
    """Base class for errors related to the road-network graph."""


class NodeNotFoundError(NetworkError):
    """Raised when a node id does not exist in the network."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id!r} does not exist in the network")
        self.node_id = node_id


class EdgeNotFoundError(NetworkError):
    """Raised when an edge id does not exist in the network."""

    def __init__(self, edge_id: int) -> None:
        super().__init__(f"edge {edge_id!r} does not exist in the network")
        self.edge_id = edge_id


class DuplicateNodeError(NetworkError):
    """Raised when adding a node whose id is already present."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id!r} already exists in the network")
        self.node_id = node_id


class DuplicateEdgeError(NetworkError):
    """Raised when adding an edge whose id is already present."""

    def __init__(self, edge_id: int) -> None:
        super().__init__(f"edge {edge_id!r} already exists in the network")
        self.edge_id = edge_id


class InvalidWeightError(NetworkError):
    """Raised when an edge weight is negative, zero, NaN or infinite."""

    def __init__(self, weight: float, edge_id: Optional[int] = None) -> None:
        where = "edge weight" if edge_id is None else f"weight of edge {edge_id!r}"
        super().__init__(f"{where} must be a positive finite number, got {weight!r}")
        self.weight = weight
        self.edge_id = edge_id


class TopologyFrozenError(NetworkError):
    """Raised when a node or edge is added to or removed from a frozen network.

    Servers, edge tables and CSR snapshots freeze their network
    (:meth:`~repro.network.graph.RoadNetwork.freeze`); a closure is a weight.

    Example::

        edited = server.network.copy()  # editable, unlike server.network
        edited.remove_edge(edge_id)
        server = MonitoringServer(edited)
    """

    def __init__(self, operation: str) -> None:
        super().__init__(f"cannot {operation}: the topology is frozen; edit network.copy()")
        self.operation = operation


class InvalidLocationError(ReproError):
    """Raised when a network location (edge id, offset) is malformed."""


class DisconnectedNetworkError(NetworkError):
    """Raised when an operation requires connectivity that does not hold."""


class MonitoringError(ReproError):
    """Base class for errors raised by the monitoring algorithms."""


class UnknownObjectError(MonitoringError):
    """Raised when an update references a data object the server never saw."""

    def __init__(self, object_id: int) -> None:
        super().__init__(f"data object {object_id!r} is not registered with the server")
        self.object_id = object_id


class UnknownQueryError(MonitoringError):
    """Raised when an update references a query the server never saw."""

    def __init__(self, query_id: int) -> None:
        super().__init__(f"query {query_id!r} is not registered with the server")
        self.query_id = query_id


class DuplicateObjectError(MonitoringError):
    """Raised when registering a data object id twice."""

    def __init__(self, object_id: int) -> None:
        super().__init__(f"data object {object_id!r} is already registered")
        self.object_id = object_id


class DuplicateQueryError(MonitoringError):
    """Raised when registering a query id twice."""

    def __init__(self, query_id: int) -> None:
        super().__init__(f"query {query_id!r} is already registered")
        self.query_id = query_id


class InvalidQueryError(MonitoringError):
    """Raised when a query is malformed (e.g. k < 1)."""


class UnknownKernelError(MonitoringError):
    """Raised when a search-kernel name is not in the kernel registry.

    The message names every registered kernel (and whether the compiled
    ``native`` backend is importable on this machine), so a typo'd
    ``kernel=`` argument fails at construction with the valid choices in
    hand instead of deep inside the first tick.

    Example::

        try:
            MonitoringServer(network, kernel="nativ")
        except UnknownKernelError as exc:
            print(exc.kernel, exc.choices)
    """

    def __init__(self, kernel: object, choices: tuple, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"unknown kernel {kernel!r}; choose one of {tuple(choices)}{suffix}"
        )
        self.kernel = kernel
        self.choices = tuple(choices)


class ServerFailedError(MonitoringError):
    """Raised when a server is used after a fatal tick failure.

    A shard dying mid-tick leaves a fleet out of lock-step; a durable server
    that cannot log a tick's batch would leave a gap in its log.  Either
    server closes itself and every later call fails with this type (rather
    than returning silently corrupt results).  ``cause`` carries a one-line
    description of the original failure.
    """

    def __init__(self, cause: str) -> None:
        super().__init__(
            f"this server failed and was closed: {cause}; "
            "construct a new server (or recover from a checkpoint) to continue"
        )
        self.cause = cause


class ServiceError(ReproError):
    """Base class for errors raised by the durable streaming service."""


class EventLogError(ServiceError):
    """Raised when the append-only event log is corrupt or misused.

    A truncated final record (a torn write from a crash) is *not* an error —
    recovery trims it; this type signals real corruption (bad magic, a CRC
    mismatch before the tail) or misuse of a closed log.
    """


class FrameError(ServiceError):
    """Raised when a complete protocol frame cannot be turned into a message.

    The payload is not a pickle, or it names a class that frames do not
    carry (see :func:`repro.service.protocol.decode_payload`).  The frame
    itself was read whole, so the connection is still in step and keeps
    serving.
    """


class RecoveryError(ServiceError):
    """Raised when checkpoint-plus-log recovery cannot reach a usable state."""


class SimulationError(ReproError):
    """Raised when a simulation or workload configuration is invalid."""


class ExperimentError(ReproError):
    """Raised when an experiment definition or sweep is invalid."""


class SpatialIndexError(ReproError):
    """Raised by the PMR quadtree for invalid construction or probing."""
