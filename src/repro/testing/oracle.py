"""Brute-force oracle monitor: ground truth for differential testing.

The :class:`OracleMonitor` implements the :class:`~repro.core.base.MonitorBase`
interface by recomputing every registered query from scratch at every
timestamp with the plain-Dijkstra reference helpers of
:mod:`repro.network.distance` — :func:`~repro.network.distance.brute_force_knn`
for k-NN queries, :func:`~repro.network.distance.brute_force_range` for
fixed-radius range queries, and
:func:`~repro.network.distance.brute_force_aggregate_knn` for aggregate
k-NN queries (one full Dijkstra per aggregation point).  It deliberately
shares nothing with the machinery under test: no expansion trees, no
influence intervals, no candidate re-use, no CSR kernel.  Quadratic and
slow by design; its value is that agreement with it is independent evidence
that OVH, IMA and GMA are correct — for every query type.
"""

from __future__ import annotations

from typing import Set

from repro.core.base import MonitorBase
from repro.core.events import UpdateBatch
from repro.core.queries import QuerySpec
from repro.core.results import KnnResult
from repro.network.distance import (
    brute_force_aggregate_knn,
    brute_force_knn,
    brute_force_range,
)
from repro.network.graph import NetworkLocation


class OracleMonitor(MonitorBase):
    """Full brute-force recomputation of every query at every timestamp.

    Example::

        oracle = OracleMonitor(network, edge_table)
        oracle.register_query(1, location, k=4)
        oracle.process_batch(batch)            # full brute-force recompute
    """

    name = "ORACLE"

    # ------------------------------------------------------------------
    # MonitorBase hooks
    # ------------------------------------------------------------------
    def _install_query(
        self, query_id: int, location: NetworkLocation, spec: QuerySpec
    ) -> KnnResult:
        return self._evaluate(query_id, location, spec)

    def _remove_query(self, query_id: int) -> None:
        # No per-query state beyond the result handled by the base class.
        return None

    def _process(self, batch: UpdateBatch) -> Set[int]:
        changed: Set[int] = set()
        for query_id in list(self._query_spec):
            result = self._evaluate(
                query_id, self._query_location[query_id], self._query_spec[query_id]
            )
            if self._store_result(query_id, list(result.neighbors), result.radius):
                changed.add(query_id)
        return changed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _evaluate(
        self, query_id: int, location: NetworkLocation, spec: QuerySpec
    ) -> KnnResult:
        """Ground-truth evaluation of one query, dispatched on its kind."""
        if spec.kind == "range":
            neighbors = brute_force_range(
                self._network, self._edge_table, location, spec.radius
            )
            radius = spec.radius
        elif spec.kind == "aggregate_knn":
            neighbors = brute_force_aggregate_knn(
                self._network,
                self._edge_table,
                spec.aggregation_points(location),
                spec.k,
                agg=spec.agg,
            )
            radius = (
                neighbors[spec.k - 1][1] if len(neighbors) >= spec.k else float("inf")
            )
        else:
            neighbors = brute_force_knn(self._network, self._edge_table, location, spec.k)
            radius = (
                neighbors[spec.k - 1][1] if len(neighbors) >= spec.k else float("inf")
            )
        return KnnResult(
            query_id=query_id,
            k=spec.result_k,
            neighbors=tuple(neighbors),
            radius=radius,
        )
