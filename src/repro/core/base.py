"""Common interface of the three monitoring algorithms (OVH, IMA, GMA).

A *monitor* owns the continuous queries registered with it and keeps their
k-NN results up to date as update batches arrive.  It reads — but never
mutates — the shared :class:`~repro.network.graph.RoadNetwork` and
:class:`~repro.network.edge_table.EdgeTable`; the owner of the shared state
applies each batch exactly once (see :func:`repro.core.events.apply_batch`)
and then calls :meth:`MonitorBase.process_batch` on every monitor, which is
how the experiment harness compares algorithms in lock-step.
"""

from __future__ import annotations

import abc
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro.core.events import QueryUpdate, UpdateBatch
from repro.core.queries import (
    QuerySpec,
    as_query_spec,
    evaluate_aggregate,
    evaluate_aggregates,
)
from repro.core.results import KnnResult, Neighbor
from repro.core.search import SearchCounters
from repro.exceptions import (
    DuplicateQueryError,
    InvalidQueryError,
    UnknownQueryError,
)
from repro.network.csr import CSRGraph
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.kernels import DEFAULT_KERNEL, resolve_kernel


@dataclass
class TimestepReport:
    """What happened while processing one update batch.

    Example::

        report = server.tick()
        print(report.timestamp, sorted(report.changed_queries))
    """

    timestamp: int
    elapsed_seconds: float
    changed_queries: Set[int] = field(default_factory=set)
    counters: Dict[str, int] = field(default_factory=dict)


class MonitorBase(abc.ABC):
    """Abstract base class of the monitoring algorithms.

    Example::

        monitor = ImaMonitor(network, edge_table)   # any MonitorBase subclass
        monitor.register_query(1, location, k=4)
        report = monitor.process_batch(batch)
        print(monitor.result_of(1).neighbors)
    """

    #: Short algorithm name used in reports ("OVH", "IMA", "GMA").
    name: str = "base"

    def __init__(
        self,
        network: RoadNetwork,
        edge_table: EdgeTable,
        counters: Optional[SearchCounters] = None,
        kernel: str = DEFAULT_KERNEL,
    ) -> None:
        """Create the monitor.

        Args:
            network: the shared road network.
            edge_table: the shared data-object table.
            counters: optional work counters shared with a caller.
            kernel: registry name of the settle engine every expansion is
                forwarded to (see :mod:`repro.network.kernels`); an unknown
                name raises :class:`~repro.exceptions.UnknownKernelError`.
        """
        self._network = network
        self._edge_table = edge_table
        self._kernel = resolve_kernel(kernel).name
        #: CSR snapshot acquired once per processed batch (None outside).
        self._batch_csr: Optional[CSRGraph] = None
        self._results: Dict[int, KnnResult] = {}
        self._query_spec: Dict[int, QuerySpec] = {}
        self._query_location: Dict[int, NetworkLocation] = {}
        self._counters = counters if counters is not None else SearchCounters()
        #: Aggregate k-NN queries of monitors that serve them through the
        #: shared :meth:`_refresh_aggregates` policy (IMA and GMA register
        #: ids here; OVH and the oracle recompute everything anyway).
        self._aggregates: Set[int] = set()

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Unpickle, dropping the tick-report list older snapshots carry.

        Names are interned, as pickle's own attribute restore does, so the
        restored monitor pickles to the bytes of one that never was.
        """
        state.pop("_timestep_reports", None)
        vars(self).update((sys.intern(name), value) for name, value in state.items())

    @property
    def kernel(self) -> str:
        """This monitor's registry kernel name (see :mod:`repro.network.kernels`)."""
        return self._kernel

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_query(
        self, query_id: int, location: NetworkLocation, k: Union[int, QuerySpec]
    ) -> KnnResult:
        """Install a new continuous query and compute its initial result.

        *k* is a plain integer (classic k-NN) or a
        :class:`~repro.core.queries.QuerySpec` selecting any query type.
        """
        if query_id in self._query_spec:
            raise DuplicateQueryError(query_id)
        spec = as_query_spec(k)
        if spec is None:
            raise InvalidQueryError(f"query {query_id} needs a k or QuerySpec")
        self._network.validate_location(location)
        for point in spec.points:
            self._network.validate_location(point)
        self._query_spec[query_id] = spec
        self._query_location[query_id] = location
        result = self._install_query(query_id, location, spec)
        self._results[query_id] = result
        return result

    def unregister_query(self, query_id: int) -> None:
        """Terminate a continuous query."""
        if query_id not in self._query_spec:
            raise UnknownQueryError(query_id)
        self._remove_query(query_id)
        del self._query_spec[query_id]
        del self._query_location[query_id]
        self._results.pop(query_id, None)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def result_of(self, query_id: int) -> KnnResult:
        """Current k-NN result of a query.

        Raises:
            UnknownQueryError: if the query is not registered.
        """
        try:
            return self._results[query_id]
        except KeyError as exc:
            raise UnknownQueryError(query_id) from exc

    def results(self) -> Dict[int, KnnResult]:
        """Current results of every registered query (a copy)."""
        return dict(self._results)

    def query_ids(self) -> Set[int]:
        """Ids of every registered continuous query."""
        return set(self._query_spec)

    def query_location(self, query_id: int) -> NetworkLocation:
        """Current position of a query (raises :class:`UnknownQueryError`)."""
        try:
            return self._query_location[query_id]
        except KeyError as exc:
            raise UnknownQueryError(query_id) from exc

    def query_spec(self, query_id: int) -> QuerySpec:
        """The :class:`QuerySpec` of a query (raises :class:`UnknownQueryError`)."""
        try:
            return self._query_spec[query_id]
        except KeyError as exc:
            raise UnknownQueryError(query_id) from exc

    def query_k(self, query_id: int) -> int:
        """The ``k`` of a query (raises :class:`UnknownQueryError`).

        For range queries this is the placeholder 1 — their result size is
        unbounded; see :meth:`query_spec` for the full query type.
        """
        return self.query_spec(query_id).k

    @property
    def query_count(self) -> int:
        """Number of registered continuous queries."""
        return len(self._query_spec)

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def process_batch(self, batch: UpdateBatch) -> TimestepReport:
        """Process one timestamp's updates and refresh the affected results.

        The shared network / edge table must already reflect the batch (see
        :func:`repro.core.events.apply_batch`).  Query terminations are
        handled before the algorithm-specific processing and installations
        after it (Section 4.5 of the paper); movements are part of the
        algorithm-specific processing.  Returns a report with the wall-clock
        time spent and the queries whose result changed.  The report is
        returned, not kept: a caller that wants the history keeps the list,
        so the monitor's state is a function of its queries and batches.
        """
        normalized = batch.net()
        before = self._counters.snapshot()
        start = time.perf_counter()

        installations = [u for u in normalized.query_updates if u.is_installation]
        terminations = [u for u in normalized.query_updates if u.is_termination]
        movements = []
        for update in normalized.query_updates:
            if update.is_installation or update.is_termination:
                continue
            spec = update.spec
            if (
                spec is not None
                and update.query_id in self._query_spec
                and spec != self._query_spec[update.query_id]
            ):
                # A same-tick terminate+install collapses (Section 4.5) into
                # a movement carrying the new spec.  A changed spec — a new
                # k, radius, aggregate points, or a different query *kind* —
                # cannot be applied as a movement (algorithm state is sized
                # to the spec), so split it back into its termination +
                # installation.  A type-preserving remove+add with the same
                # spec stays a movement and keeps the incremental path.
                terminations.append(QueryUpdate(update.query_id, update.old_location, None))
                installations.append(
                    QueryUpdate(update.query_id, None, update.new_location, spec)
                )
            else:
                movements.append(update)

        for update in terminations:
            if update.query_id in self._query_spec:
                self.unregister_query(update.query_id)

        for update in movements:
            if update.query_id in self._query_location:
                assert update.new_location is not None
                self._query_location[update.query_id] = update.new_location

        core_batch = UpdateBatch(
            timestamp=normalized.timestamp,
            object_updates=normalized.object_updates,
            query_updates=movements,
            edge_updates=normalized.edge_updates,
        )
        changed = self._process(core_batch)

        for update in installations:
            assert update.new_location is not None and update.k is not None
            self.register_query(update.query_id, update.new_location, update.k)
            changed.add(update.query_id)

        elapsed = time.perf_counter() - start
        after = self._counters.snapshot()
        return TimestepReport(
            timestamp=normalized.timestamp,
            elapsed_seconds=elapsed,
            changed_queries=changed,
            counters={key: after[key] - before[key] for key in after},
        )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def counters(self) -> SearchCounters:
        """Cumulative work counters across all processing so far."""
        return self._counters

    def memory_footprint_bytes(self) -> int:
        """Rough size of the algorithm-specific state (Figure 18).

        Subclasses extend this with their own structures; the base method
        accounts for the per-query result lists (k entries of 16 bytes each).
        """
        return sum(16 * len(result.neighbors) for result in self._results.values())

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _install_query(
        self, query_id: int, location: NetworkLocation, spec: QuerySpec
    ) -> KnnResult:
        """Compute the initial result of a newly registered query."""

    @abc.abstractmethod
    def _remove_query(self, query_id: int) -> None:
        """Drop the algorithm-specific state of a terminated query."""

    @abc.abstractmethod
    def _process(self, batch: UpdateBatch) -> Set[int]:
        """Handle a normalized batch; return the ids of changed queries."""

    # ------------------------------------------------------------------
    # shared helpers for subclasses
    # ------------------------------------------------------------------
    def _refresh_aggregates(self, batch: UpdateBatch) -> Set[int]:
        """Re-evaluate registered aggregate queries that could have changed.

        Shared policy of the incremental monitors (IMA and GMA register
        their aggregate ids in ``self._aggregates``): any object or edge
        update can move an aggregate distance, so a tick carrying either
        re-evaluates every aggregate query; a tick carrying only query
        movements re-evaluates just the moved ones.  (An empty tick is a
        no-op — nothing the aggregate depends on changed.)

        All stale queries of one tick are evaluated through a single
        :func:`~repro.core.queries.evaluate_aggregates` call, so expansions
        rooted at coinciding points — co-located tenants, shared aggregation
        anchors — run once and are reused (the per-tick shared-expansion
        cache).  Result values are identical to per-query evaluation.
        """
        if batch.object_updates or batch.edge_updates:
            stale = self._aggregates
        else:
            stale = {
                update.query_id
                for update in batch.query_updates
                if update.query_id in self._aggregates
            }
        stale_ids = sorted(stale)
        changed: Set[int] = set()
        if not stale_ids:
            return changed
        evaluations = evaluate_aggregates(
            self._network,
            self._edge_table,
            [
                (self._query_location[query_id], self._query_spec[query_id])
                for query_id in stale_ids
            ],
            kernel=self._kernel,
            csr=self._batch_csr,
            counters=self._counters,
        )
        for query_id, (neighbors, radius) in zip(stale_ids, evaluations):
            if self._store_result(query_id, neighbors, radius):
                changed.add(query_id)
        return changed

    def _evaluate_aggregate(self, location: NetworkLocation, spec: QuerySpec):
        """Per-point expansions merged under the spec's aggregate function."""
        return evaluate_aggregate(
            self._network,
            self._edge_table,
            location,
            spec,
            kernel=self._kernel,
            csr=self._batch_csr,
            counters=self._counters,
        )

    def _store_result(self, query_id: int, neighbors: List[Neighbor], radius: float) -> bool:
        """Store a new result; return True when it differs from the old one."""
        new_result = KnnResult(
            query_id=query_id,
            k=self._query_spec[query_id].result_k,
            neighbors=tuple(neighbors),
            radius=radius,
        )
        old_result = self._results.get(query_id)
        self._results[query_id] = new_result
        if old_result is None:
            return True
        return old_result.neighbors != new_result.neighbors
