"""OVH — the overhaul baseline: recompute every query at every timestamp.

The paper's benchmark competitor (Section 6): at every timestamp each
registered query is re-evaluated from scratch, regardless of whether any
update could have affected it — the Figure-2 expansion for k-NN queries, a
fixed-radius expansion for range queries, and per-point expansions merged
under the aggregate distance function for aggregate k-NN queries.  OVH is
trivially correct, which also makes it the reference the differential tests
compare IMA and GMA against.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.core.base import MonitorBase
from repro.core.events import UpdateBatch
from repro.core.queries import QuerySpec
from repro.core.results import KnnResult, Neighbor
from repro.core.search import ExpansionRequest, expand_knn_batch
from repro.network.csr import csr_snapshot
from repro.network.graph import NetworkLocation


class OvhMonitor(MonitorBase):
    """Recompute-from-scratch continuous monitoring (all query types).

    Takes the constructor arguments of :class:`~repro.core.base.MonitorBase`.
    ``kernel`` names the settle engine — ``"csr"`` (default) or the
    compiled ``"native"``; a tick is collect-then-flush for every
    kernel: the whole timestamp's expansions run as one
    :func:`~repro.core.search.expand_knn_batch` call on the named engine.

    Example::

        monitor = OvhMonitor(network, edge_table)
        monitor.register_query(1, location, k=4)
        monitor.process_batch(batch)      # recomputes every query
    """

    name = "OVH"

    # ------------------------------------------------------------------
    # MonitorBase hooks
    # ------------------------------------------------------------------
    def _install_query(
        self, query_id: int, location: NetworkLocation, spec: QuerySpec
    ) -> KnnResult:
        neighbors, radius = self._evaluate(location, spec)
        return KnnResult(
            query_id=query_id,
            k=spec.result_k,
            neighbors=tuple(neighbors),
            radius=radius,
        )

    def _remove_query(self, query_id: int) -> None:
        # OVH keeps no per-query state beyond the result handled by the base.
        return None

    def _process(self, batch: UpdateBatch) -> Set[int]:
        changed: Set[int] = set()
        self._batch_csr = csr_snapshot(self._network)
        try:
            # The whole timestamp's expansions as one batched kernel call
            # (aggregate queries batch their per-point expansions inside
            # _evaluate_aggregate, over the same snapshot).
            expansion_ids = [
                query_id
                for query_id, spec in self._query_spec.items()
                if spec.kind != "aggregate_knn"
            ]
            outcomes = expand_knn_batch(
                self._network,
                self._edge_table,
                [
                    self._request_for(
                        self._query_location[query_id], self._query_spec[query_id]
                    )
                    for query_id in expansion_ids
                ],
                counters=self._counters,
                csr=self._batch_csr,
                kernel=self._kernel,
            )
            for query_id, outcome in zip(expansion_ids, outcomes):
                if self._store_result(query_id, outcome.neighbors, outcome.radius):
                    changed.add(query_id)
            for query_id, spec in self._query_spec.items():
                if spec.kind != "aggregate_knn":
                    continue
                neighbors, radius = self._evaluate_aggregate(
                    self._query_location[query_id], spec
                )
                if self._store_result(query_id, neighbors, radius):
                    changed.add(query_id)
            return changed
        finally:
            self._batch_csr = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _request_for(location: NetworkLocation, spec: QuerySpec) -> ExpansionRequest:
        """The expansion request of one k-NN or range query."""
        return ExpansionRequest(
            k=spec.k,
            query_location=location,
            fixed_radius=spec.radius if spec.kind == "range" else None,
        )

    def _evaluate(
        self, location: NetworkLocation, spec: QuerySpec
    ) -> Tuple[List[Neighbor], float]:
        """One from-scratch evaluation of a newly installed query."""
        if spec.kind == "aggregate_knn":
            return self._evaluate_aggregate(location, spec)
        [outcome] = expand_knn_batch(
            self._network,
            self._edge_table,
            [self._request_for(location, spec)],
            counters=self._counters,
            kernel=self._kernel,
        )
        return outcome.neighbors, outcome.radius
