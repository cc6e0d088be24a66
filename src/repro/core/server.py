"""Monitoring-server facade: the user-facing API of the library.

The :class:`MonitoringServer` plays the role of the central server of the
paper: it owns the road network, the edge table and one monitoring algorithm
(OVH, IMA, or GMA), accepts the three kinds of updates — by network location
or by raw workspace coordinates, which are snapped to the nearest edge
through the PMR quadtree — buffers them, and processes one *timestamp* per
call to :meth:`tick`.

Example::

    from repro import MonitoringServer, city_network

    network = city_network(400, seed=7)
    server = MonitoringServer(network, algorithm="gma")
    server.add_object_at(1, x=120.0, y=80.0)
    server.add_query_at(100, x=100.0, y=100.0, k=2)
    server.move_object_at(1, x=140.0, y=90.0)
    report = server.tick()
    print(server.result_of(100).neighbors)
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import BinaryIO, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.base import MonitorBase, TimestepReport
from repro.core.events import (
    EdgeWeightUpdate,
    ObjectUpdate,
    QueryUpdate,
    UpdateBatch,
    apply_batch,
)
from repro.core.gma import GmaMonitor
from repro.core.ima import ImaMonitor
from repro.core.ovh import OvhMonitor
from repro.core.queries import QuerySpec, as_query_spec
from repro.core.results import KnnResult
from repro.exceptions import (
    DuplicateObjectError,
    DuplicateQueryError,
    MonitoringError,
    RecoveryError,
    UnknownObjectError,
    UnknownQueryError,
)
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.record import (
    ColumnReader,
    decode_network,
    write_float_column,
    write_network,
)
from repro.spatial.geometry import Point

#: Leads a snapshot's dynamic section: magic, version, kind, flags,
#: topology_version, weight_version, the edge table's version, edge count,
#: object count.  The weight column, the three object columns and the
#: monitor pickle follow.
_DYNAMIC_HEADER = struct.Struct("<4sBBBQQQII")
_DYNAMIC_MAGIC = b"RPDY"
#: Version 2 pickles the applied query maps.  Version 1 pickled them as the
#: pending buffer leaves them, and is read by rolling that buffer back.
_DYNAMIC_VERSION = 2
_READ_DYNAMIC_VERSIONS = (1, _DYNAMIC_VERSION)
#: The header's kind byte indexes this.
_SNAPSHOT_KINDS = ("in-process", "sharded")
#: Flag bit: the edge table snaps coordinates (``build_spatial_index``).
_INDEXES_COORDINATES = 0x01

#: A query as the pending buffer leaves it: location, spec, and whether the
#: buffer installed it.
_QueryState = Tuple[NetworkLocation, Optional[QuerySpec], bool]

#: Monitor implementations selectable by name.
ALGORITHMS = {
    "ovh": OvhMonitor,
    "ima": ImaMonitor,
    "gma": GmaMonitor,
}


class MonitoringServer:
    """Central continuous k-NN monitoring server over one road network.

    Example::

        network = city_network(400, seed=7)
        server = MonitoringServer(network, algorithm="gma")
        server.add_object_at(1, x=120.0, y=80.0)
        server.add_query_at(100, x=100.0, y=100.0, k=2)
        report = server.tick()
        print(server.result_of(100).neighbors)
    """

    def __new__(cls, *args, **kwargs):
        """Dispatch multi-process configurations to the sharded server.

        ``MonitoringServer(network, workers=4)`` — or any
        ``partitioning=`` other than the replica default, e.g.
        ``MonitoringServer(network, partitioning="graph")`` — returns a
        :class:`~repro.core.sharding.ShardedMonitoringServer`, which keeps
        the exact same public API but fans every tick out to its
        shards.  Explicitly constructed subclasses are left alone.
        Both arguments are keyword-only, so reading them from *kwargs* is
        safe.
        """
        workers = kwargs.get("workers", 1)
        partitioning = kwargs.get("partitioning", "replica")
        if cls is MonitoringServer and (
            (workers is not None and workers > 1) or partitioning != "replica"
        ):
            from repro.core.sharding import ShardedMonitoringServer

            return super().__new__(ShardedMonitoringServer)
        return super().__new__(cls)

    def __init__(
        self,
        network: RoadNetwork,
        algorithm: Union[str, MonitorBase] = "ima",
        edge_table: Optional[EdgeTable] = None,
        *,
        workers: int = 1,
        partitioning: str = "replica",
    ) -> None:
        """Create a server over *network* running *algorithm*.

        Args:
            network: the road network; its topology is frozen from here on
                (:meth:`~repro.network.graph.RoadNetwork.freeze`).
            algorithm: ``"ovh"``, ``"ima"``, ``"gma"`` (case-insensitive), or
                an already constructed monitor instance bound to the same
                network and edge table.
            edge_table: optionally a pre-populated edge table to share.
            workers: number of query-execution processes (keyword-only).
                ``1`` (default) runs everything in-process; larger values
                hand construction over to
                :class:`~repro.core.sharding.ShardedMonitoringServer`
                (see :meth:`__new__`), which partitions the queries across
                that many workers.
            partitioning: ``"replica"`` (default) or ``"graph"``
                (keyword-only).  Any non-default value hands construction
                over to the sharded server (see :meth:`__new__`), which
                documents the modes; a single-process server is always
                effectively a full replica.
        """
        if workers is not None and workers < 1:
            # Surfaced here (not just in the sharded subclass) so a config
            # that computed workers=0 fails loudly instead of silently
            # building a single-process server.
            raise MonitoringError(f"workers must be >= 1, got {workers}")
        if partitioning != "replica":
            # Only reachable through a subclass that bypassed __new__'s
            # dispatch; the sharded subclass overrides __init__ entirely.
            raise MonitoringError(
                f"a single-process server supports only partitioning="
                f"'replica', got {partitioning!r}"
            )
        network.freeze()  # a fixed graph: closures are weights
        self._network = network
        self._edge_table = edge_table if edge_table is not None else EdgeTable(network)
        self._monitor = self._make_monitor(algorithm)
        self._pending = UpdateBatch(timestamp=0)
        self._timestamp = 0
        # The objects the pending buffer touched, each where the buffer
        # leaves it (None: removed); every other object is where the edge
        # table has it.  Cleared when the buffer is detached or dropped.
        self._pending_objects: Dict[int, Optional[NetworkLocation]] = {}
        # The queries as the last tick left them (the applied state) ...
        self._query_locations: Dict[int, NetworkLocation] = {}
        self._query_specs: Dict[int, QuerySpec] = {}
        # ... and the ones the pending buffer touched, each as the buffer
        # leaves it: (location, spec, installed by the buffer), or None when
        # terminated.  Committed by apply_taken_batch, cleared by
        # discard_pending.
        self._pending_queries: Dict[int, Optional[_QueryState]] = {}
        if workers is not None and workers > 1 and self._monitor is not None:
            # Only ShardedMonitoringServer (whose _make_monitor returns
            # None) honours workers > 1; a direct subclass reaching this
            # point would silently run single-process otherwise.
            raise MonitoringError(
                f"{type(self).__name__} runs in-process and ignores "
                f"workers={workers}; construct ShardedMonitoringServer for "
                "multi-process execution"
            )

    @staticmethod
    def _resolve_algorithm_key(algorithm: str) -> str:
        """Validate an algorithm name and return its ALGORITHMS key."""
        key = algorithm.lower()
        if key not in ALGORITHMS:
            raise MonitoringError(
                f"unknown algorithm {algorithm!r}; choose one of {sorted(ALGORITHMS)}"
            )
        return key

    def _make_monitor(self, algorithm: Union[str, MonitorBase]) -> Optional[MonitorBase]:
        """Resolve *algorithm* to the in-process monitor instance.

        The sharded subclass overrides this to validate the name and return
        None — its monitors live in its shards.
        """
        if isinstance(algorithm, MonitorBase):
            return algorithm
        key = self._resolve_algorithm_key(algorithm)
        return ALGORITHMS[key](self._network, self._edge_table)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The road network this server monitors."""
        return self._network

    @property
    def edge_table(self) -> EdgeTable:
        """The edge table tracking the data objects (shared state)."""
        return self._edge_table

    @property
    def monitor(self) -> MonitorBase:
        """The in-process monitoring algorithm instance."""
        return self._monitor

    @property
    def applied_query_locations(self) -> Dict[int, NetworkLocation]:
        """Query id -> location of every query the last tick left installed.

        The queries' counterpart of :attr:`EdgeTable.locations
        <repro.network.edge_table.EdgeTable.locations>`: the state before
        the pending buffer, which is what a write-ahead record leaves the
        query old locations out against (:func:`~repro.core.events.encode_batch`).
        Pending installations, moves and terminations are not in it until
        the tick that applies them.  Treat as read-only.
        """
        return self._query_locations

    @property
    def algorithm_name(self) -> str:
        """Short name of the running algorithm ("OVH", "IMA", "GMA")."""
        return self._monitor.name

    @property
    def current_timestamp(self) -> int:
        """The timestamp the next :meth:`tick` will process."""
        return self._timestamp

    def _ensure_accepting_updates(self) -> None:
        """Hook called before any update is buffered (no-op in-process).

        The sharded subclass overrides this to reject ingestion after
        :meth:`close`, where buffered updates could never be processed.
        """

    # ------------------------------------------------------------------
    # location helpers
    # ------------------------------------------------------------------
    def snap(self, x: float, y: float) -> NetworkLocation:
        """Snap workspace coordinates to the nearest network edge."""
        return self._edge_table.snap_point(Point(x, y))

    def snap_many(self, coordinates: Iterable[Tuple[float, float]]) -> List[NetworkLocation]:
        """Snap a batch of ``(x, y)`` pairs in one vectorized quadtree pass."""
        points = [Point(x, y) for x, y in coordinates]
        return self._edge_table.snap_points(points)

    # ------------------------------------------------------------------
    # data objects
    # ------------------------------------------------------------------
    def _object_location(self, object_id: int) -> Optional[NetworkLocation]:
        """Where the pending buffer leaves an object; None if it is not there."""
        pending = self._pending_objects
        if object_id in pending:
            return pending[object_id]
        return self._edge_table.locations.get(object_id)

    def add_object(self, object_id: int, location: NetworkLocation) -> None:
        """Register a new data object (takes effect at the next tick)."""
        self._ensure_accepting_updates()
        if self._object_location(object_id) is not None:
            raise DuplicateObjectError(object_id)
        self._network.validate_location(location)
        self._pending_objects[object_id] = location
        self._pending.object_updates.append(ObjectUpdate(object_id, None, location))

    def add_object_at(self, object_id: int, x: float, y: float) -> NetworkLocation:
        """Register a new data object by coordinates; returns the snapped location."""
        location = self.snap(x, y)
        self.add_object(object_id, location)
        return location

    def move_object(self, object_id: int, new_location: NetworkLocation) -> None:
        """Report a data-object movement (takes effect at the next tick)."""
        self._ensure_accepting_updates()
        old_location = self._object_location(object_id)
        if old_location is None:
            raise UnknownObjectError(object_id)
        self._network.validate_location(new_location)
        self._pending_objects[object_id] = new_location
        self._pending.object_updates.append(
            ObjectUpdate(object_id, old_location, new_location)
        )

    def move_object_at(self, object_id: int, x: float, y: float) -> NetworkLocation:
        """Report a data-object movement by coordinates."""
        location = self.snap(x, y)
        self.move_object(object_id, location)
        return location

    def remove_object(self, object_id: int) -> None:
        """Report that a data object disappeared."""
        self._ensure_accepting_updates()
        old_location = self._object_location(object_id)
        if old_location is None:
            raise UnknownObjectError(object_id)
        self._pending_objects[object_id] = None
        self._pending.object_updates.append(ObjectUpdate(object_id, old_location, None))

    # ------------------------------------------------------------------
    # batched ingestion
    # ------------------------------------------------------------------
    def add_objects_at(
        self, items: Iterable[Tuple[int, float, float]]
    ) -> Dict[int, NetworkLocation]:
        """Register many data objects by ``(object_id, x, y)`` in one pass.

        All coordinates are snapped through one vectorized quadtree batch and
        the whole group is validated before anything is buffered, so a
        duplicate id leaves the server unchanged.

        Returns:
            object id -> snapped location.

        Raises:
            DuplicateObjectError: if any id is already registered (or appears
                twice in the batch).
        """
        self._ensure_accepting_updates()
        batch = list(items)
        seen: Set[int] = set()
        for object_id, _, _ in batch:
            if self._object_location(object_id) is not None or object_id in seen:
                raise DuplicateObjectError(object_id)
            seen.add(object_id)
        locations = self.snap_many((x, y) for _, x, y in batch)
        snapped: Dict[int, NetworkLocation] = {}
        for (object_id, _, _), location in zip(batch, locations):
            self._pending_objects[object_id] = location
            self._pending.object_updates.append(ObjectUpdate(object_id, None, location))
            snapped[object_id] = location
        return snapped

    def move_objects_at(
        self, items: Iterable[Tuple[int, float, float]]
    ) -> Dict[int, NetworkLocation]:
        """Report many data-object movements by ``(object_id, x, y)``.

        The batch counterpart of :meth:`move_object_at`; ids never added to
        the server are rejected up front, before any update is buffered.

        Returns:
            object id -> snapped location.

        Raises:
            UnknownObjectError: if any id has never been added.
        """
        self._ensure_accepting_updates()
        batch = list(items)
        for object_id, _, _ in batch:
            if self._object_location(object_id) is None:
                raise UnknownObjectError(object_id)
        locations = self.snap_many((x, y) for _, x, y in batch)
        snapped: Dict[int, NetworkLocation] = {}
        for (object_id, _, _), location in zip(batch, locations):
            old_location = self._object_location(object_id)
            self._pending_objects[object_id] = location
            self._pending.object_updates.append(
                ObjectUpdate(object_id, old_location, location)
            )
            snapped[object_id] = location
        return snapped

    def apply_updates(self, batch: UpdateBatch) -> None:
        """Buffer a pre-built :class:`UpdateBatch` in one call.

        The bulk ingestion path for callers that already know network
        locations (simulators, feed adapters): equivalent to issuing every
        contained update through the per-entity methods, minus the
        per-update method-call and snapping overhead.  Old locations /
        weights are re-derived from the server's own view, so the caller
        only needs ids and new values; the batch object itself is not
        retained.  Updates take effect at the next :meth:`tick`.

        Raises:
            DuplicateObjectError / UnknownObjectError / DuplicateQueryError /
            UnknownQueryError: on id misuse, before anything is buffered.
        """
        self._ensure_accepting_updates()
        pending_objects = self._pending_objects
        table_locations = self._edge_table.locations
        # Validate the whole batch first so a bad update leaves the pending
        # buffer untouched.  `staged` is the overlay this batch adds (later
        # rows of an object see its earlier ones), `olds` each row's old
        # location as the buffer then stands.
        staged: Dict[int, Optional[NetworkLocation]] = {}
        olds: List[Optional[NetworkLocation]] = []
        for update in batch.object_updates:
            object_id = update.object_id
            if object_id in staged:
                old_location = staged[object_id]
            elif object_id in pending_objects:
                old_location = pending_objects[object_id]
            else:
                old_location = table_locations.get(object_id)
            if update.is_insertion:
                if old_location is not None:
                    raise DuplicateObjectError(object_id)
            elif old_location is None:
                raise UnknownObjectError(object_id)
            if update.new_location is not None:
                self._network.validate_location(update.new_location)
            staged[object_id] = update.new_location
            olds.append(old_location)
        # query id -> installed once the batch's rows so far are buffered
        installed: Dict[int, bool] = {}
        for update in batch.query_updates:
            query_id = update.query_id
            if query_id in installed:
                known = installed[query_id]
            else:
                known = self._query_state(query_id) is not None
            if update.is_installation:
                if known:
                    raise DuplicateQueryError(query_id)
            elif not known:
                raise UnknownQueryError(query_id)
            installed[query_id] = not update.is_termination
            if update.new_location is not None:
                self._network.validate_location(update.new_location)
            if update.is_installation:
                for point in update.spec.points:
                    self._network.validate_location(point)
        for edge_update in batch.edge_updates:
            self._network.weight_of(edge_update.edge_id)  # raises if unknown

        pending = self._pending
        pending.object_updates.extend(
            update
            if update.old_location is old_location
            else ObjectUpdate(update.object_id, old_location, update.new_location)
            for update, old_location in zip(batch.object_updates, olds)
        )
        pending_objects.update(staged)
        for update in batch.query_updates:
            if not update.is_installation:
                old_location = self._query_state(update.query_id)[0]
                # A normalized same-tick terminate+reinstall arrives as a
                # movement carrying the new spec; it is forwarded so monitors
                # split it back into terminate + install whenever the spec
                # (k, radius, points, or kind) changed.
                update = QueryUpdate(
                    update.query_id,
                    old_location,
                    update.new_location,
                    None if update.is_termination else update.spec,
                )
            self._buffer_query_update(update)
        weight_of = self._network.weight_of
        pending.edge_updates.extend(
            EdgeWeightUpdate(update.edge_id, weight_of(update.edge_id), update.new_weight)
            for update in batch.edge_updates
        )

    def object_ids(self) -> Set[int]:
        """Ids of every registered data object (including pending adds)."""
        ids = set(self._edge_table.object_ids())
        for object_id, location in self._pending_objects.items():
            if location is None:
                ids.discard(object_id)
            else:
                ids.add(object_id)
        return ids

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _query_state(self, query_id: int) -> Optional[_QueryState]:
        """``(location, spec, installed by the buffer)`` where the buffer leaves a query.

        None when the query is not installed there.
        """
        pending = self._pending_queries
        if query_id in pending:
            return pending[query_id]
        location = self._query_locations.get(query_id)
        if location is None:
            return None
        return location, self._query_specs.get(query_id), False

    def _buffer_query_update(self, update: QueryUpdate) -> None:
        """Append a validated query update to the buffer and its overlay.

        An installation moves the query to the end of the overlay, so that
        :meth:`_commit_pending_queries` adds the installed queries in the
        order of their last installation, as buffering them into the
        applied maps would.  So does a move that carries a spec: that is
        how :meth:`UpdateBatch.normalized` writes a same-tick terminate +
        reinstall, so a log replay of the reinstall moves the query to the
        end as the live run did.
        """
        pending = self._pending_queries
        query_id = update.query_id
        if update.is_installation or (
            update.spec is not None and not update.is_termination
        ):
            pending.pop(query_id, None)
            pending[query_id] = (update.new_location, update.spec, True)
        elif update.is_termination:
            pending[query_id] = None
        else:
            _, spec, installed = self._query_state(query_id)
            if update.spec is not None:
                spec = update.spec
            pending[query_id] = (update.new_location, spec, installed)
        self._pending.query_updates.append(update)

    def _commit_pending_queries(self) -> None:
        """Fold the pending overlay into the applied query maps, then clear it."""
        locations, specs = self._query_locations, self._query_specs
        for query_id, state in self._pending_queries.items():
            if state is None or state[2]:
                # Terminated; or (re)installed, which puts it last, as
                # buffering into the maps would have.
                locations.pop(query_id, None)
                specs.pop(query_id, None)
            if state is not None:
                location, spec, _ = state
                locations[query_id] = location
                if spec is not None:
                    specs[query_id] = spec
        self._pending_queries = {}

    def add_query(
        self, query_id: int, location: NetworkLocation, k: Union[int, QuerySpec]
    ) -> None:
        """Install a continuous query (takes effect at the next tick).

        *k* is a plain integer — the classic continuous k-NN query — or any
        :class:`~repro.core.queries.QuerySpec`: ``QuerySpec.range(radius)``
        for fixed-radius range monitoring, ``QuerySpec.aggregate_knn(k,
        points, agg)`` for aggregate nearest neighbors over the query's
        location plus fixed extra points.
        """
        self._ensure_accepting_updates()
        if self._query_state(query_id) is not None:
            raise DuplicateQueryError(query_id)
        spec = as_query_spec(k)
        self._network.validate_location(location)
        if spec is not None:
            for point in spec.points:
                self._network.validate_location(point)
        # Construct the update before touching any state: its validation
        # (a missing spec, most notably) must leave the server unchanged so
        # the id stays usable.
        self._buffer_query_update(QueryUpdate(query_id, None, location, spec))

    def add_query_at(
        self, query_id: int, x: float, y: float, k: Union[int, QuerySpec]
    ) -> NetworkLocation:
        """Install a continuous query by coordinates (int k or a QuerySpec)."""
        location = self.snap(x, y)
        self.add_query(query_id, location, k)
        return location

    def move_query(self, query_id: int, new_location: NetworkLocation) -> None:
        """Report a query movement (takes effect at the next tick)."""
        self._ensure_accepting_updates()
        state = self._query_state(query_id)
        if state is None:
            raise UnknownQueryError(query_id)
        self._network.validate_location(new_location)
        self._buffer_query_update(QueryUpdate(query_id, state[0], new_location))

    def move_query_at(self, query_id: int, x: float, y: float) -> NetworkLocation:
        """Report a query movement by coordinates."""
        location = self.snap(x, y)
        self.move_query(query_id, location)
        return location

    def remove_query(self, query_id: int) -> None:
        """Terminate a continuous query."""
        self._ensure_accepting_updates()
        state = self._query_state(query_id)
        if state is None:
            raise UnknownQueryError(query_id)
        self._buffer_query_update(QueryUpdate(query_id, state[0], None))

    def query_ids(self) -> Set[int]:
        """Ids of every installed query (including pending installations)."""
        ids = set(self._query_locations)
        for query_id, state in self._pending_queries.items():
            if state is None:
                ids.discard(query_id)
            else:
                ids.add(query_id)
        return ids

    def query_spec_of(self, query_id: int) -> QuerySpec:
        """The :class:`QuerySpec` of an installed query (typed error on miss).

        Raises:
            UnknownQueryError: if the query was never added (or was removed).
        """
        state = self._query_state(query_id)
        if state is None:
            raise UnknownQueryError(query_id)
        return state[1]

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def update_edge_weight(self, edge_id: int, new_weight: float) -> None:
        """Report an edge-weight change, e.g. from a traffic sensor."""
        self._ensure_accepting_updates()
        old_weight = self._network.weight_of(edge_id)
        self._pending.edge_updates.append(
            EdgeWeightUpdate(edge_id, old_weight, new_weight)
        )

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def take_pending_batch(self) -> UpdateBatch:
        """Detach the pending buffer as the next tick's batch and advance time.

        The first half of :meth:`tick`, exposed so write-ahead callers (the
        durable service) can persist the batch *between* taking and applying
        it: ``take_pending_batch()`` stamps the batch with the current
        timestamp and advances the clock, :meth:`apply_taken_batch` then
        processes it.  Shared by the in-process and sharded tick paths so
        batch/timestamp semantics cannot diverge between them.  Ingest
        nothing between the two calls: until the batch is applied, the
        edge table still holds the objects where they were before it, and
        :attr:`applied_query_locations` the queries.
        """
        batch = self._pending
        batch.timestamp = self._timestamp
        self._pending = UpdateBatch(timestamp=self._timestamp + 1)
        self._pending_objects = {}
        self._timestamp += 1
        return batch

    def apply_taken_batch(self, batch: UpdateBatch) -> TimestepReport:
        """Process a batch previously detached by :meth:`take_pending_batch`.

        The second half of :meth:`tick`: applies the batch to the shared
        network/edge table and runs the monitor.  The batch must carry the
        timestamp :meth:`take_pending_batch` stamped on it; feeding anything
        else desynchronizes the server clock from the monitor reports.
        The buffered query updates enter the applied query maps first.
        """
        self._commit_pending_queries()
        net = batch.net()
        apply_batch(self._network, self._edge_table, net)
        return self._monitor.process_batch(net)

    def discard_pending(self) -> UpdateBatch:
        """Drop (and return) every buffered-but-unprocessed update.

        Used by crash recovery: updates that were ingested but never ticked
        are not durable by design, so a recovered server starts its next
        tick from an empty buffer.  Buffering never touched the applied
        state, so clearing the pending overlays is the whole rollback: every
        object is back where the edge table has it and every query where,
        and with the spec, the last tick left it.
        """
        dropped = self._pending
        self._pending = UpdateBatch(timestamp=self._timestamp)
        self._pending_objects = {}
        self._pending_queries = {}
        return dropped

    def tick(self) -> TimestepReport:
        """Process every buffered update as one timestamp."""
        return self.apply_taken_batch(self.take_pending_batch())

    def result_of(self, query_id: int) -> KnnResult:
        """Current k-NN result of a query (after the last tick)."""
        return self._monitor.result_of(query_id)

    def results(self) -> Dict[int, KnnResult]:
        """Current results of every query (after the last tick)."""
        return self._monitor.results()

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def write_static_state(self, stream: BinaryIO) -> None:
        """Stream the snapshot's *static section* to a binary *stream*.

        The static section is what no tick can change: the road network
        (topology, geometry, base weights) as one columnar record of
        :mod:`repro.network.record`, streamed a column at a time, so
        writing it allocates one column, not a copy of the network.  It
        holds no current weights (every dynamic section carries them) and
        not the edge table's spatial index, which is derived from the
        network and rebuilt on the restored server's first snap.  The
        topology is frozen, so a durable caller writes this once and pairs
        it with many dynamic sections
        (``snapshot_state(static=False)``).

        Example::

            with open("base.bin", "wb") as stream:
                server.write_static_state(stream)
        """
        write_network(self._network, stream)

    def snapshot_state(self, *, static: bool = True) -> bytes:
        """Serialize the complete server state to one opaque blob.

        The blob is the static section (see :meth:`write_static_state`)
        followed by the *dynamic section*: a ``struct`` header, the edge
        weights as one ``float64`` column and the objects' ``(id, edge,
        fraction)`` as three columns in the :mod:`repro.network.record`
        idiom, then one small pickle of the monitor (including its
        per-query float history), the applied query maps, pending buffer
        and timestamp in which the network and the edge table are
        references, not copies.  Restore it with :func:`restore_server`.  The CSR
        adjacency is deliberately *not* captured; it is rebuilt
        deterministically from the restored network on first use.

        The blob is same-release: restore it with the release that took it.

        Args:
            static: pass False for the dynamic section alone — the static
                one must then be handed to :func:`restore_server`
                separately.
        """
        return self._encode_snapshot(static, "in-process", {"monitor": self._monitor})

    def _encode_snapshot(self, static: bool, kind: str, fields: Dict[str, object]) -> bytes:
        """The one snapshot encoder; *fields* are the server kind's own state."""
        network, edge_table = self._network, self._edge_table
        buffer = io.BytesIO()
        if static:
            self.write_static_state(buffer)
        buffer.write(
            _DYNAMIC_HEADER.pack(
                _DYNAMIC_MAGIC,
                _DYNAMIC_VERSION,
                _SNAPSHOT_KINDS.index(kind),
                _INDEXES_COORDINATES if edge_table.indexes_coordinates else 0,
                network.topology_version,
                network.weight_version,
                edge_table.version,
                network.edge_count,
                edge_table.object_count,
            )
        )
        write_float_column(buffer, network.weight_column())
        edge_table.write_object_columns(buffer)
        _ReferencePickler(buffer, network, edge_table).dump(
            {
                "timestamp": self._timestamp,
                "pending": self._pending,
                "query_locations": self._query_locations,
                "query_specs": self._query_specs,
                **fields,
            }
        )
        return buffer.getvalue()

    def _adopt_snapshot(self, state: Dict[str, object]) -> None:
        """Install the state every server kind shares from a decoded snapshot.

        The pending overlays are not stored: they are the pending buffer's
        objects and queries, each where the buffer's updates of it leave it.
        """
        self._network = state["network"]
        self._edge_table = state["edge_table"]
        self._timestamp = state["timestamp"]
        self._pending = state["pending"]
        self._query_locations = state["query_locations"]
        self._query_specs = state["query_specs"]
        self._pending_objects = {
            update.object_id: update.new_location for update in self._pending.object_updates
        }
        self._pending_queries = {}
        query_updates, self._pending.query_updates = self._pending.query_updates, []
        for update in query_updates:
            self._buffer_query_update(update)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release external resources (idempotent).

        A no-op for the in-process server; the sharded subclass shuts its
        worker processes down here.
        Provided on the base class so ``with MonitoringServer(...) as s:``
        works uniformly regardless of ``workers``.
        """

    def __enter__(self) -> "MonitoringServer":
        """Enter a context that guarantees :meth:`close` on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the server when the ``with`` block ends."""
        self.close()


class _ReferencePickler(pickle.Pickler):
    """Pickles the network and the edge table as references, not copies."""

    def __init__(self, stream: BinaryIO, network: RoadNetwork, edge_table: EdgeTable) -> None:
        super().__init__(stream, protocol=pickle.HIGHEST_PROTOCOL)
        self._references = {id(network): "network", id(edge_table): "edge_table"}

    def persistent_id(self, obj: object) -> Optional[str]:
        """The reference name of *obj*, or None to pickle it by value."""
        return self._references.get(id(obj))


class _ReferenceUnpickler(pickle.Unpickler):
    """Resolves the references a :class:`_ReferencePickler` wrote."""

    def __init__(self, stream: BinaryIO, references: Dict[str, object]) -> None:
        super().__init__(stream)
        self._references = references

    def persistent_load(self, pid: object) -> object:
        """The restored object a reference stands for."""
        try:
            return self._references[pid]
        except (KeyError, TypeError):
            raise pickle.UnpicklingError(f"unknown snapshot reference {pid!r}") from None


def _roll_back_pending_queries(state: Dict[str, object]) -> None:
    """Turn a version-1 section's query maps into the applied ones.

    That version stored the maps with the pending buffer already in them,
    so its query updates are undone, the latest first.  A query the buffer
    terminated gets its location back but not its spec, which the section
    does not hold; nor does a move that changed the spec get the old one
    back.  Both come again with the next tick, which replays the buffer.
    """
    locations, specs = state["query_locations"], state["query_specs"]
    for update in reversed(state["pending"].query_updates):
        if update.is_installation:
            locations.pop(update.query_id, None)
            specs.pop(update.query_id, None)
        else:
            locations[update.query_id] = update.old_location


def load_snapshot(blob, static=None) -> Dict[str, object]:
    """Decode a snapshot into its state mapping without building a server.

    The mapping holds the rebuilt ``"network"`` and ``"edge_table"`` (the
    static section with the weight and object columns overlaid), the
    snapshot's ``"kind"`` and every field of the dynamic section, the
    query maps as the applied state (see
    :attr:`MonitoringServer.applied_query_locations`).  The edge
    table's spatial index is not decoded but left to be built from the
    network on the first snap, where it comes out identical.  Nothing
    is spawned, which is what lets
    :func:`~repro.service.durable.load_initial_state` read a sharded
    snapshot cheaply; :func:`restore_server` builds the server from it.

    Args:
        blob: a :meth:`MonitoringServer.snapshot_state` blob (any
            bytes-like).
        static: the static section, when *blob* is a dynamic section alone.

    Raises:
        RecoveryError: if the sections do not decode or do not belong
            together (different ``topology_version``).
    """
    try:
        network, end = decode_network(blob if static is None else static)
        start = end if static is None else 0
        reader = ColumnReader(memoryview(blob)[start:], "snapshot's dynamic section")
        (
            magic, version, kind, flags, topology_version, weight_version,
            objects_version, edge_count, object_count,
        ) = _DYNAMIC_HEADER.unpack(reader.take("the header", _DYNAMIC_HEADER.size))
        if magic != _DYNAMIC_MAGIC or version not in _READ_DYNAMIC_VERSIONS:
            raise RecoveryError(
                f"not a dynamic section of this release: {bytes(magic)!r} version {version}"
            )
        if kind >= len(_SNAPSHOT_KINDS):
            raise RecoveryError(f"unsupported server snapshot kind {kind}")
        if network.topology_version != topology_version:
            raise RecoveryError(
                f"dynamic section was taken at topology version {topology_version} "
                f"but the static section holds {network.topology_version}"
            )
        network.restore_weights(reader.floats("weights", edge_count), weight_version)
        edge_table = EdgeTable.from_columns(
            network,
            reader.ints("object ids", object_count),
            reader.ints("object edges", object_count),
            reader.floats("object fractions", object_count),
            objects_version,
            bool(flags & _INDEXES_COORDINATES),
        )
        # A BytesIO shares a bytes blob instead of copying it.
        stream = io.BytesIO(blob)
        stream.seek(start + reader.offset)
        state = _ReferenceUnpickler(
            stream, {"network": network, "edge_table": edge_table}
        ).load()
        state.update(kind=_SNAPSHOT_KINDS[kind], network=network, edge_table=edge_table)
        if version == 1:
            _roll_back_pending_queries(state)
    except RecoveryError:
        raise
    except Exception as exc:
        raise RecoveryError(f"cannot decode server snapshot: {exc}") from exc
    return state


def restore_server(blob, static=None) -> MonitoringServer:
    """Rebuild a server from a :meth:`MonitoringServer.snapshot_state` blob.

    Dispatches on the blob's kind: an in-process snapshot rebuilds a
    :class:`MonitoringServer` around the snapshot's monitor (same monitor
    state, same pending buffer, same timestamp); a sharded snapshot rebuilds
    a :class:`~repro.core.sharding.ShardedMonitoringServer`, rebuilding every
    shard from its pickled monitor so every expansion tree
    resumes with its exact float history.  Continuing the restored server
    with the same updates yields results byte-identical to the original.
    A blob is same-release: it must come from this version's
    :meth:`MonitoringServer.snapshot_state`, never from an older one.

    Args:
        blob: the snapshot (any bytes-like).
        static: the static section, when *blob* was taken with
            ``snapshot_state(static=False)``.

    Raises:
        RecoveryError: if the blob does not decode to a supported snapshot.

    Example::

        blob = server.snapshot_state()
        clone = restore_server(blob)
        assert clone.results() == server.results()
    """
    state = load_snapshot(blob, static)  # which refuses an unknown kind
    if state["kind"] == "in-process":
        server = object.__new__(MonitoringServer)
        try:
            server._monitor = state["monitor"]
            server._adopt_snapshot(state)
        except KeyError as exc:
            raise RecoveryError(f"in-process snapshot is missing field {exc}") from exc
        if not isinstance(server._monitor, MonitorBase):
            raise RecoveryError(
                f"in-process snapshot holds {type(server._monitor).__name__}, not a monitor"
            )
        return server
    from repro.core.sharding import ShardedMonitoringServer

    return ShardedMonitoringServer._restore(state)
