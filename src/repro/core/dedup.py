"""Multi-tenant query deduplication: N logical subscribers, one physical query.

Real monitoring traffic is massively redundant: at a popular venue,
thousands of tenants install the *same* continuous query — identical kind,
identical parameters, same (or nearly same) position on the same edge.  The
paper's algorithms (and the :class:`~repro.core.server.MonitoringServer`
built on them) treat every query as independent, paying one expansion tree,
one influence-region subscription and one per-tick maintenance pass per
tenant.

:class:`DedupFrontend` removes that redundancy *in front of* a server.  It
maps every logical query to a **canonical key** — ``(spec, edge, snapped
fraction)`` — and keeps one reference-counted *dedup group* per key.  Only
the first subscriber of a key installs a **physical query** on the wrapped
server; later subscribers join the group for free, and results fan back out
by relabeling the physical result with each subscriber's own query id.  A
subscriber leaving decrements the group; the physical query is terminated
only when the *last* subscriber leaves, so one tenant's departure can never
kill another tenant's results.

Canonicalization semantics:

* ``snap_tolerance=0.0`` (the default) groups only queries at the *exact*
  same :class:`~repro.network.graph.NetworkLocation` — results are then
  identical to running every logical query individually, because the
  physical query sits at precisely the shared position.
* ``snap_tolerance=t > 0`` buckets edge fractions into windows of width
  ``t`` (in fraction-of-edge units): queries whose specs match and whose
  fractions fall into the same window share one physical query anchored at
  the *first* subscriber's position.  Results are then approximate within
  ``t * edge_weight`` of each subscriber's true position — the knob trades
  exactness for sharing on long edges.

A location or spec change routes through the cheapest correct path: a move
that stays inside the query's own canonical bucket is pure bookkeeping; a
sole subscriber moving to an unoccupied key rides the server's incremental
``move_query`` path (the monitors' tree-repair machinery); everything else
— a subscriber splitting out of a shared group, or landing on an occupied
key — is a reference-counted leave + join.

Example::

    from repro import DedupFrontend, MonitoringServer, city_network

    network = city_network(400, seed=7)
    frontend = DedupFrontend(MonitoringServer(network, algorithm="ima"))
    frontend.add_object(1, location)
    frontend.add_query(100, venue, k=2)       # installs one physical query
    frontend.add_query(101, venue, k=2)       # joins the same group
    frontend.tick()
    assert frontend.result_of(101).query_id == 101
    frontend.remove_query(100)                # 101 keeps its results
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from math import floor, isfinite
from typing import Dict, Set, Tuple, Union

from repro.core.base import TimestepReport
from repro.core.events import UpdateBatch
from repro.core.queries import QuerySpec, as_query_spec
from repro.core.results import KnnResult
from repro.exceptions import (
    DuplicateQueryError,
    InvalidQueryError,
    MonitoringError,
    UnknownQueryError,
)
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork


@dataclass(frozen=True)
class DedupStats:
    """Snapshot of a :class:`DedupFrontend`'s sharing effectiveness.

    Attributes:
        logical_queries: live logical (subscriber) queries.
        physical_queries: live physical queries on the wrapped server —
            equal to the number of dedup groups.
        largest_group: subscriber count of the biggest dedup group (0 when
            no queries are live).
        deduped_installs: cumulative installs served by joining an existing
            group instead of installing a physical query.
        physical_installs: cumulative physical queries installed on the
            wrapped server.
        physical_moves: cumulative sole-subscriber moves that rode the
            incremental ``move_query`` path.

    Example::

        stats = frontend.dedup_stats()
        print(stats.logical_queries / max(stats.physical_queries, 1))
    """

    logical_queries: int
    physical_queries: int
    largest_group: int
    deduped_installs: int
    physical_installs: int
    physical_moves: int


@dataclass
class _DedupGroup:
    """One canonical query: a physical id, its anchor, and its subscribers."""

    physical_id: int
    key: Tuple[QuerySpec, int, float]
    location: NetworkLocation
    subscribers: Set[int]


class DedupFrontend:
    """Reference-counted query-dedup layer over a monitoring server.

    Wraps any object with the :class:`~repro.core.server.MonitoringServer`
    surface — the in-process server or a
    :class:`~repro.core.sharding.ShardedMonitoringServer` — and exposes the
    same update/tick/result API for *logical* query ids while the wrapped
    server only ever sees deduplicated *physical* ids.  Physical ids come
    from a private counter and are never reused, so a group dying and a new
    one forming at the same key within one tick reach the server as a plain
    terminate + install pair (never a same-id collapse).

    Data-object and edge-weight updates pass straight through.  Between a
    logical install and the next :meth:`tick`, :meth:`result_of` raises
    :class:`~repro.exceptions.UnknownQueryError` exactly like the plain
    server does for its own pending installations.

    Example::

        frontend = DedupFrontend(MonitoringServer(network, "ima"), snap_tolerance=0.0)
        frontend.add_query(100, location, k=2)
        frontend.tick()
        print(frontend.result_of(100).neighbors)
    """

    def __init__(self, server, snap_tolerance: float = 0.0) -> None:
        """Wrap *server*; group queries within *snap_tolerance* of each other.

        Args:
            server: the monitoring server to deduplicate in front of.  The
                frontend takes ownership: drive all updates and ticks
                through the frontend (mixing direct server calls in would
                desynchronize the fanout table).
            snap_tolerance: canonical-location bucket width in
                fraction-of-edge units; ``0.0`` (default) requires exact
                location equality and keeps results exact.
        """
        if not isfinite(snap_tolerance) or snap_tolerance < 0:
            raise MonitoringError(
                f"snap_tolerance must be finite and >= 0, got {snap_tolerance!r}"
            )
        self._server = server
        self._snap_tolerance = float(snap_tolerance)
        self._groups: Dict[Tuple[QuerySpec, int, float], _DedupGroup] = {}
        self._group_of: Dict[int, _DedupGroup] = {}
        self._group_by_pid: Dict[int, _DedupGroup] = {}
        self._spec_of: Dict[int, QuerySpec] = {}
        self._location_of: Dict[int, NetworkLocation] = {}
        #: logical ids installed since the last tick (result_of raises, and
        #: the next report lists them as changed — plain-server parity)
        self._installed_pending: Set[int] = set()
        #: logical ids that changed group since the last tick (their result
        #: may change even when neither physical result did)
        self._rebound_pending: Set[int] = set()
        self._next_physical_id = count(1)
        self._deduped_installs = 0
        self._physical_installs = 0
        self._physical_moves = 0

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def server(self):
        """The wrapped monitoring server (physical-id view)."""
        return self._server

    @property
    def snap_tolerance(self) -> float:
        """The canonical-location bucket width (fraction-of-edge units)."""
        return self._snap_tolerance

    @property
    def network(self) -> RoadNetwork:
        """The wrapped server's road network."""
        return self._server.network

    @property
    def edge_table(self) -> EdgeTable:
        """The wrapped server's edge table."""
        return self._server.edge_table

    @property
    def current_timestamp(self) -> int:
        """The timestamp the next :meth:`tick` will process."""
        return self._server.current_timestamp

    # ------------------------------------------------------------------
    # canonicalization
    # ------------------------------------------------------------------
    def canonical_key(
        self, location: NetworkLocation, spec: QuerySpec
    ) -> Tuple[QuerySpec, int, float]:
        """The dedup-group key of a query at *location* with *spec*.

        Two queries share a physical query iff their keys are equal: same
        spec (kind and all parameters), same edge, and — with a positive
        :attr:`snap_tolerance` — edge fractions in the same bucket window
        (exact fraction equality when the tolerance is 0).

        Example::

            key = frontend.canonical_key(location, QuerySpec.knn(2))
        """
        if self._snap_tolerance > 0.0:
            bucket = float(floor(location.fraction / self._snap_tolerance))
        else:
            bucket = location.fraction
        return (spec, location.edge_id, bucket)

    # ------------------------------------------------------------------
    # data objects and edges: straight passthrough
    # ------------------------------------------------------------------
    def add_object(self, object_id: int, location: NetworkLocation) -> None:
        """Register a new data object (takes effect at the next tick)."""
        self._server.add_object(object_id, location)

    def move_object(self, object_id: int, new_location: NetworkLocation) -> None:
        """Report a data-object movement (takes effect at the next tick)."""
        self._server.move_object(object_id, new_location)

    def remove_object(self, object_id: int) -> None:
        """Report that a data object disappeared."""
        self._server.remove_object(object_id)

    def object_ids(self) -> Set[int]:
        """Ids of every registered data object (including pending adds)."""
        return self._server.object_ids()

    def update_edge_weight(self, edge_id: int, new_weight: float) -> None:
        """Report an edge-weight change, e.g. from a traffic sensor."""
        self._server.update_edge_weight(edge_id, new_weight)

    # ------------------------------------------------------------------
    # logical queries
    # ------------------------------------------------------------------
    def add_query(
        self, query_id: int, location: NetworkLocation, k: Union[int, QuerySpec]
    ) -> None:
        """Install a logical query (dedup-aware; effective at the next tick)."""
        if query_id in self._spec_of:
            raise DuplicateQueryError(query_id)
        spec = as_query_spec(k)
        if spec is None:
            raise InvalidQueryError(f"query {query_id} needs a k or QuerySpec")
        self.network.validate_location(location)
        for point in spec.points:
            self.network.validate_location(point)
        self._subscribe(query_id, location, spec)
        self._installed_pending.add(query_id)

    def move_query(self, query_id: int, new_location: NetworkLocation) -> None:
        """Report a logical query movement (takes effect at the next tick)."""
        if query_id not in self._spec_of:
            raise UnknownQueryError(query_id)
        self.network.validate_location(new_location)
        self._relocate(query_id, new_location, self._spec_of[query_id])

    def remove_query(self, query_id: int) -> None:
        """Terminate a logical query (the group's physical query survives
        until its last subscriber leaves)."""
        if query_id not in self._spec_of:
            raise UnknownQueryError(query_id)
        self._unsubscribe(query_id)
        self._installed_pending.discard(query_id)
        self._rebound_pending.discard(query_id)

    def query_ids(self) -> Set[int]:
        """Ids of every logical query (including pending installations)."""
        return set(self._spec_of)

    def query_spec_of(self, query_id: int) -> QuerySpec:
        """The :class:`QuerySpec` of a logical query (typed error on miss)."""
        try:
            return self._spec_of[query_id]
        except KeyError as exc:
            raise UnknownQueryError(query_id) from exc

    def query_location_of(self, query_id: int) -> NetworkLocation:
        """The exact (pre-snap) location of a logical query."""
        try:
            return self._location_of[query_id]
        except KeyError as exc:
            raise UnknownQueryError(query_id) from exc

    # ------------------------------------------------------------------
    # group bookkeeping
    # ------------------------------------------------------------------
    def _subscribe(
        self, query_id: int, location: NetworkLocation, spec: QuerySpec
    ) -> None:
        """Join (or create) the dedup group of ``(location, spec)``."""
        key = self.canonical_key(location, spec)
        group = self._groups.get(key)
        if group is None:
            physical_id = next(self._next_physical_id)
            self._server.add_query(physical_id, location, spec)
            group = _DedupGroup(physical_id, key, location, set())
            self._groups[key] = group
            self._group_by_pid[physical_id] = group
            self._physical_installs += 1
        else:
            self._deduped_installs += 1
        group.subscribers.add(query_id)
        self._group_of[query_id] = group
        self._spec_of[query_id] = spec
        self._location_of[query_id] = location

    def _unsubscribe(self, query_id: int) -> None:
        """Leave the group; terminate the physical query on refcount zero."""
        group = self._group_of.pop(query_id)
        group.subscribers.discard(query_id)
        del self._spec_of[query_id]
        del self._location_of[query_id]
        if not group.subscribers:
            del self._groups[group.key]
            del self._group_by_pid[group.physical_id]
            self._server.remove_query(group.physical_id)

    def _relocate(
        self, query_id: int, new_location: NetworkLocation, spec: QuerySpec
    ) -> None:
        """Move (and possibly respec) a logical query via the cheapest path."""
        group = self._group_of[query_id]
        new_key = self.canonical_key(new_location, spec)
        if new_key == group.key:
            # Same canonical bucket: the physical query stays put.  With a
            # zero tolerance the key carries the exact fraction, so this is
            # only ever a true no-op move.
            self._location_of[query_id] = new_location
            return
        if (
            len(group.subscribers) == 1
            and spec == self._spec_of[query_id]
            and new_key not in self._groups
        ):
            # Sole subscriber, unchanged spec, unoccupied destination: keep
            # the physical query and ride the incremental movement path.
            del self._groups[group.key]
            group.key = new_key
            group.location = new_location
            self._groups[new_key] = group
            self._server.move_query(group.physical_id, new_location)
            self._physical_moves += 1
            self._location_of[query_id] = new_location
            self._rebound_pending.add(query_id)
            return
        # Split out of a shared group / merge into an existing one / change
        # spec: a reference-counted leave + join.
        pending_install = query_id in self._installed_pending
        self._unsubscribe(query_id)
        self._subscribe(query_id, new_location, spec)
        if not pending_install:
            self._rebound_pending.add(query_id)

    # ------------------------------------------------------------------
    # batched ingestion
    # ------------------------------------------------------------------
    def apply_updates(self, batch: UpdateBatch) -> None:
        """Buffer a pre-built :class:`UpdateBatch` through the dedup layer.

        Query updates are normalized first (the Section 4.5 same-tick
        collapse) and dispatched through the reference-counted group
        machinery — a normalized movement carrying a changed spec becomes a
        leave + join, mirroring the monitors' split-back.  Object and edge
        updates ride through to the wrapped server unchanged, and are
        validated by it before any query update is applied.

        Raises:
            DuplicateQueryError / UnknownQueryError (and the wrapped
            server's object/edge errors): on id misuse; query updates are
            validated against the logical registry before anything is
            dispatched.
        """
        normalized = batch.net()
        added: Set[int] = set()
        removed: Set[int] = set()
        for update in normalized.query_updates:
            known = (
                update.query_id in self._spec_of or update.query_id in added
            ) and update.query_id not in removed
            if update.is_installation:
                if known:
                    raise DuplicateQueryError(update.query_id)
                added.add(update.query_id)
                removed.discard(update.query_id)
            else:
                if not known:
                    raise UnknownQueryError(update.query_id)
                if update.is_termination:
                    removed.add(update.query_id)
                    added.discard(update.query_id)
            if update.new_location is not None:
                self.network.validate_location(update.new_location)
            if update.spec is not None:
                for point in update.spec.points:
                    self.network.validate_location(point)
        passthrough = UpdateBatch(
            timestamp=normalized.timestamp,
            object_updates=normalized.object_updates,
            edge_updates=normalized.edge_updates,
        )
        self._server.apply_updates(passthrough)
        for update in normalized.query_updates:
            if update.is_installation:
                self._subscribe(update.query_id, update.new_location, update.spec)
                self._installed_pending.add(update.query_id)
            elif update.is_termination:
                self._unsubscribe(update.query_id)
                self._installed_pending.discard(update.query_id)
                self._rebound_pending.discard(update.query_id)
            else:
                spec = (
                    update.spec
                    if update.spec is not None
                    else self._spec_of[update.query_id]
                )
                self._relocate(update.query_id, update.new_location, spec)

    # ------------------------------------------------------------------
    # processing and results
    # ------------------------------------------------------------------
    def tick(self) -> TimestepReport:
        """Process one timestamp on the wrapped server and fan results out.

        The returned report carries *logical* ids: every subscriber of a
        physical query the server reported as changed, plus the logical
        queries installed or regrouped since the last tick.
        """
        report = self._server.tick()
        changed: Set[int] = set()
        for physical_id in report.changed_queries:
            group = self._group_by_pid.get(physical_id)
            if group is not None:
                changed.update(group.subscribers)
        changed.update(q for q in self._installed_pending if q in self._group_of)
        changed.update(q for q in self._rebound_pending if q in self._group_of)
        self._installed_pending.clear()
        self._rebound_pending.clear()
        return TimestepReport(
            timestamp=report.timestamp,
            elapsed_seconds=report.elapsed_seconds,
            changed_queries=changed,
            counters=report.counters,
        )

    def result_of(self, query_id: int) -> KnnResult:
        """Current result of a logical query, relabeled with its own id."""
        if query_id in self._installed_pending:
            raise UnknownQueryError(query_id)
        group = self._group_of.get(query_id)
        if group is None:
            raise UnknownQueryError(query_id)
        return replace(self._server.result_of(group.physical_id), query_id=query_id)

    def results(self) -> Dict[int, KnnResult]:
        """Current results of every logical query (after the last tick)."""
        physical = self._server.results()
        fanned: Dict[int, KnnResult] = {}
        for group in self._groups.values():
            result = physical.get(group.physical_id)
            if result is None:
                continue  # the physical installation is still pending
            for query_id in group.subscribers:
                if query_id not in self._installed_pending:
                    fanned[query_id] = replace(result, query_id=query_id)
        return fanned

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def dedup_stats(self) -> DedupStats:
        """A :class:`DedupStats` snapshot of the current sharing state.

        Example::

            stats = frontend.dedup_stats()
            assert stats.physical_queries <= stats.logical_queries
        """
        return DedupStats(
            logical_queries=len(self._spec_of),
            physical_queries=len(self._groups),
            largest_group=max(
                (len(group.subscribers) for group in self._groups.values()),
                default=0,
            ),
            deduped_installs=self._deduped_installs,
            physical_installs=self._physical_installs,
            physical_moves=self._physical_moves,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the wrapped server (idempotent)."""
        self._server.close()

    def __enter__(self) -> "DedupFrontend":
        """Enter a context that guarantees :meth:`close` on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the wrapped server when the ``with`` block ends."""
        self.close()
