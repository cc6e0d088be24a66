"""Influence index: which queries does an edge (or a point on it) affect?

Section 3 of the paper attaches to every edge an *influence list* ``e.IL``
containing the queries it affects together with the corresponding
*influencing intervals* — the portions of the edge whose network distance
from the query is at most the query's ``kNN_dist``.  The monitoring
algorithms use these lists to process only the updates that may invalidate a
result and ignore everything else.

This module centralises that bookkeeping in :class:`InfluenceIndex`, a
bidirectional mapping::

    edge_id  ->  {subscriber_id: spans}
    subscriber_id -> {edge_id}

where a *subscriber* is a query (IMA, GMA user queries) or an active node
(GMA's inner monitor).  Intervals are expressed in travel-cost offsets from
the edge's start node under the edge weight current at registration time;
because a query's intervals are recomputed whenever its expansion state
changes, the stored intervals are always consistent with the weights the
subscriber last saw.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Set, Tuple

from repro.utils.intervals import Spans, point_in_spans


#: Shared empty mapping returned by the zero-copy subscriber view.
_NO_SUBSCRIBERS: Dict[int, "Spans"] = {}


class InfluenceIndex:
    """Bidirectional edge <-> subscriber influence mapping."""

    def __init__(self) -> None:
        self._by_edge: Dict[int, Dict[int, Spans]] = {}
        self._by_subscriber: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def set_influence(
        self, subscriber_id: int, edge_id: int, intervals: Spans
    ) -> None:
        """Register (or replace) the influence of *edge_id* on *subscriber_id*.

        Registering an empty interval set removes the entry.
        """
        if not intervals:
            self.remove_influence(subscriber_id, edge_id)
            return
        self._by_edge.setdefault(edge_id, {})[subscriber_id] = intervals
        self._by_subscriber.setdefault(subscriber_id, set()).add(edge_id)

    def replace_subscriber(
        self, subscriber_id: int, influences: Mapping[int, Spans]
    ) -> None:
        """Atomically replace every influence entry of one subscriber."""
        self.clear_subscriber(subscriber_id)
        for edge_id, intervals in influences.items():
            self.set_influence(subscriber_id, edge_id, intervals)

    def replace_subscribers(
        self, influences_by_subscriber: Mapping[int, Mapping[int, Spans]]
    ) -> None:
        """Bulk :meth:`replace_subscriber` for a whole flushed tick.

        Semantically identical to calling :meth:`replace_subscriber` once
        per entry, but diff-aware: consecutive influence regions of a query
        overlap heavily, so entries on edges present in both the old and the
        new map are overwritten in place instead of removed and re-inserted;
        only the old-minus-new edges pay a removal.  The monitors'
        collect-then-flush tick refreshes hundreds of subscribers here in
        one call.
        """
        by_edge = self._by_edge
        by_subscriber = self._by_subscriber
        for subscriber_id, influences in influences_by_subscriber.items():
            old_edges = by_subscriber.get(subscriber_id)
            edges: Set[int] = set()
            for edge_id, intervals in influences.items():
                if not intervals:
                    continue
                per_edge = by_edge.get(edge_id)
                if per_edge is None:
                    by_edge[edge_id] = {subscriber_id: intervals}
                else:
                    per_edge[subscriber_id] = intervals
                edges.add(edge_id)
            if old_edges:
                for edge_id in old_edges:
                    if edge_id in edges:
                        continue
                    per_edge = by_edge.get(edge_id)
                    if per_edge is not None:
                        per_edge.pop(subscriber_id, None)
                        if not per_edge:
                            del by_edge[edge_id]
            if edges:
                by_subscriber[subscriber_id] = edges
            else:
                by_subscriber.pop(subscriber_id, None)

    def remove_influence(self, subscriber_id: int, edge_id: int) -> None:
        """Remove one (subscriber, edge) entry if present."""
        per_edge = self._by_edge.get(edge_id)
        if per_edge is not None and subscriber_id in per_edge:
            del per_edge[subscriber_id]
            if not per_edge:
                del self._by_edge[edge_id]
        edges = self._by_subscriber.get(subscriber_id)
        if edges is not None:
            edges.discard(edge_id)
            if not edges:
                del self._by_subscriber[subscriber_id]

    def clear_subscriber(self, subscriber_id: int) -> None:
        """Remove every influence entry of *subscriber_id*."""
        edges = self._by_subscriber.pop(subscriber_id, set())
        for edge_id in edges:
            per_edge = self._by_edge.get(edge_id)
            if per_edge is not None:
                per_edge.pop(subscriber_id, None)
                if not per_edge:
                    del self._by_edge[edge_id]

    def clear(self) -> None:
        """Drop every entry."""
        self._by_edge.clear()
        self._by_subscriber.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def subscribers_on_edge(self, edge_id: int) -> Set[int]:
        """Every subscriber affected by *edge_id* (any interval)."""
        return set(self._by_edge.get(edge_id, ()))

    def subscribers_on_edge_view(self, edge_id: int):
        """Zero-copy iterable of the subscribers affected by *edge_id*.

        Unlike :meth:`subscribers_on_edge` this does not copy; the caller
        must not register or remove influence entries while iterating.  The
        monitors' update-collection loops (which only read the index) use it
        to avoid one set copy per update.
        """
        return self._by_edge.get(edge_id, _NO_SUBSCRIBERS)

    def subscribers_at_point(
        self, edge_id: int, offset: float, tolerance: float = 1e-6
    ) -> Set[int]:
        """Subscribers whose influencing interval on *edge_id* contains *offset*.

        This is the filter applied to object updates: an update matters to a
        query only when the object's (old or new) position falls inside the
        query's influencing interval on that edge.  The tolerance is generous
        (over-inclusion merely processes a harmless extra update, while
        under-inclusion could leave a stale neighbor in a result).
        """
        result: Set[int] = set()
        for subscriber_id, intervals in self._by_edge.get(edge_id, {}).items():
            if point_in_spans(intervals, offset, tolerance):
                result.add(subscriber_id)
        return result

    def interval_of(self, subscriber_id: int, edge_id: int) -> Optional[Spans]:
        """The influencing interval set of a (subscriber, edge) pair, if any."""
        return self._by_edge.get(edge_id, {}).get(subscriber_id)

    def edges_of_subscriber(self, subscriber_id: int) -> Set[int]:
        """Every edge that currently affects *subscriber_id*."""
        return set(self._by_subscriber.get(subscriber_id, ()))

    def contains_point(
        self, subscriber_id: int, edge_id: int, offset: float, tolerance: float = 1e-6
    ) -> bool:
        """True when *offset* on *edge_id* influences *subscriber_id*."""
        intervals = self.interval_of(subscriber_id, edge_id)
        return intervals is not None and point_in_spans(intervals, offset, tolerance)

    def has_subscriber(self, subscriber_id: int) -> bool:
        return subscriber_id in self._by_subscriber

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total number of (edge, subscriber) influence entries."""
        return sum(len(per_edge) for per_edge in self._by_edge.values())

    def edge_count(self) -> int:
        """Number of edges with at least one influence entry."""
        return len(self._by_edge)

    def subscriber_count(self) -> int:
        """Number of subscribers with at least one influence entry."""
        return len(self._by_subscriber)

    def interval_count(self) -> int:
        """Total number of stored intervals (for memory accounting)."""
        return sum(
            len(intervals)
            for per_edge in self._by_edge.values()
            for intervals in per_edge.values()
        )

    def iter_entries(self) -> Iterator[Tuple[int, int, Spans]]:
        """Iterate over ``(edge_id, subscriber_id, intervals)`` entries."""
        for edge_id, per_edge in self._by_edge.items():
            for subscriber_id, intervals in per_edge.items():
                yield edge_id, subscriber_id, intervals
