"""Flat-array CSR snapshot of a :class:`~repro.network.graph.RoadNetwork`.

The monitoring hot path (the Figure-2 expansion and every resumed search)
spends most of its time iterating adjacency.  Doing that over per-node dicts
of :class:`~repro.network.graph.Edge` dataclasses costs several attribute
lookups and a tuple allocation per neighbor; at production scale the Python
overhead dwarfs the algorithmic work the paper's IMA/GMA save.  This module
provides a compressed-sparse-row view of the network:

* nodes and edges are mapped to dense integer indices,
* adjacency is three parallel flat columns (``adj_node``, ``adj_eid``,
  ``adj_weight``) sliced per node by ``indptr``, with one entry per
  *traversable* direction (one-way edges appear once),
* ``adj_forward`` records whether an entry leaves the edge's start node, so
  object offsets along the edge can be computed without touching the edge.

Building a snapshot freezes the network's topology
(:meth:`~repro.network.graph.RoadNetwork.freeze`), so the columns describe
the network's nodes and edges for as long as both live.  The snapshot
registers a weight listener with the network, so a ``set_edge_weight`` call
patches the affected column entries in O(degree).  One snapshot is cached
per network.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.network.graph import RoadNetwork

_INF = float("inf")


class _Scratch:
    """Reusable per-search work arrays, reset via the touched-index list.

    Allocating four O(n) buffers per search dominates small searches on
    large networks; instead the kernel borrows these and resets only the
    entries it wrote.  ``in_use`` guards against (unexpected) reentrancy, in
    which case the caller falls back to fresh allocations.
    """

    __slots__ = ("best", "tentative", "settled", "tentative_parent", "in_use")

    def __init__(self, size: int) -> None:
        self.best: List[float] = [_INF] * size
        self.tentative: List[float] = [_INF] * size
        self.settled = bytearray(size)
        self.tentative_parent: List[int] = [-1] * size
        self.in_use = False

    def release(self, touched: List[int]) -> None:
        """Reset every touched slot and hand the buffers back."""
        best = self.best
        tentative = self.tentative
        settled = self.settled
        parent = self.tentative_parent
        for index in touched:
            best[index] = _INF
            tentative[index] = _INF
            settled[index] = 0
            parent[index] = -1
        self.in_use = False


class _EdgeScratch:
    """Reusable per-walk edge-marking buffer, reset via the touched list.

    The influence-map computation visits the edges incident to every
    verified node and must process each edge once; marking dense edge
    positions in a shared bytearray avoids allocating a fresh set per query
    (thousands of times per timestamp on update-heavy workloads).
    """

    __slots__ = ("seen", "in_use")

    def __init__(self, size: int) -> None:
        self.seen = bytearray(size)
        self.in_use = False

    def release(self, touched: List[int]) -> None:
        """Reset every touched slot and hand the buffer back."""
        seen = self.seen
        for index in touched:
            seen[index] = 0
        self.in_use = False


class CSRGraph:
    """Immutable flat-array adjacency snapshot of a road network.

    Attributes (all parallel / index-based; treat as read-only):
        node_ids: dense index -> original node id.
        node_index: original node id -> dense index.
        edge_ids: dense edge index -> original edge id.
        edge_index: original edge id -> dense edge index.
        indptr: per-node slice boundaries into the ``adj_*`` columns.
        adj_node: neighbor *node index* per adjacency entry.
        adj_eid: original *edge id* per entry (for edge-table lookups).
        adj_weight: current weight per entry (kept fresh incrementally).
        adj_forward: 1 when the entry leaves the edge's start node.
        edge_weight: current weight per dense edge index.
        edge_start / edge_end: endpoint node indices per dense edge index.
        edge_oneway: 1 for one-way edges.
        inc_indptr: per-node slice boundaries into ``inc_edge``.
        inc_edge: dense edge *positions* incident to each node.  Unlike the
            ``adj_*`` columns this incidence view contains every incident
            edge regardless of traversability (a one-way edge appears at
            both endpoints), which is what influence-region computations
            need.

    Example::

        snapshot = csr_snapshot(network)       # cached, kept fresh
        start, stop = snapshot.indptr[0], snapshot.indptr[1]
        print(snapshot.adj_node[start:stop])   # neighbors of dense node 0
    """

    def __init__(self, network: RoadNetwork) -> None:
        # The columns index the network's nodes and edges once; freezing
        # keeps them the network's for good.
        network.freeze()
        # Weak references in both directions: a strong back-reference would
        # keep the snapshot-cache key alive forever, and registering a bound
        # method as the listener would pin every snapshot for the network's
        # whole lifetime.  The wrapper below forwards weight changes while
        # the snapshot lives and unregisters itself once it is gone, so
        # loop-constructed snapshots cost at most one stale closure until
        # the next weight change.
        self._network_ref = weakref.ref(network)
        self._build(network)
        self_ref = weakref.ref(self)
        network_ref = self._network_ref

        def _forward(edge_id: Optional[int], weight: float) -> None:
            snapshot = self_ref()
            if snapshot is None:
                live_network = network_ref()
                if live_network is not None:
                    live_network.remove_weight_listener(_forward)
                return
            snapshot._on_weight_change(edge_id, weight)

        self._listener: Optional[Callable[[Optional[int], float], None]] = _forward
        network.add_weight_listener(_forward)

    def close(self) -> None:
        """Detach from the network's weight notifications (idempotent).

        After closing, the snapshot no longer tracks weight changes; use it
        only if you know the weights are frozen, or build a fresh one.
        """
        network = self._network_ref()
        if network is not None and self._listener is not None:
            network.remove_weight_listener(self._listener)
        self._listener = None

    # ------------------------------------------------------------------
    # construction / refresh
    # ------------------------------------------------------------------
    def _build(self, network: RoadNetwork) -> None:
        """Build every column from the network's current state."""
        self.node_ids: List[int] = list(network.node_ids())
        self.node_index: Dict[int, int] = {
            node_id: index for index, node_id in enumerate(self.node_ids)
        }
        self.edge_ids: List[int] = list(network.edge_ids())
        self.edge_index: Dict[int, int] = {
            edge_id: index for index, edge_id in enumerate(self.edge_ids)
        }

        node_index = self.node_index
        edge_weight: List[float] = []
        edge_start: List[int] = []
        edge_end: List[int] = []
        edge_oneway = bytearray(len(self.edge_ids))
        for position, edge_id in enumerate(self.edge_ids):
            edge = network.edge(edge_id)
            edge_weight.append(edge.weight)
            edge_start.append(node_index[edge.start])
            edge_end.append(node_index[edge.end])
            if edge.oneway:
                edge_oneway[position] = 1
        self.edge_weight = edge_weight
        self.edge_start = edge_start
        self.edge_end = edge_end
        self.edge_oneway = edge_oneway

        indptr: List[int] = [0]
        adj_node: List[int] = []
        adj_eid: List[int] = []
        adj_weight: List[float] = []
        adj_forward = bytearray()
        inc_indptr: List[int] = [0]
        inc_edge: List[int] = []
        for node_id in self.node_ids:
            for edge_id in network.incident_edges(node_id):
                edge = network.edge(edge_id)
                position = self.edge_index[edge_id]
                inc_edge.append(position)
                if edge.oneway and edge.start != node_id:
                    continue
                adj_node.append(node_index[edge.other_endpoint(node_id)])
                adj_eid.append(edge_id)
                adj_weight.append(edge.weight)
                adj_forward.append(1 if edge.start == node_id else 0)
            indptr.append(len(adj_node))
            inc_indptr.append(len(inc_edge))
        self.indptr = indptr
        self.adj_node = adj_node
        self.adj_eid = adj_eid
        self.adj_weight = adj_weight
        self.adj_forward = adj_forward
        self.inc_indptr = inc_indptr
        self.inc_edge = inc_edge
        self._weights_stale = False
        self._weights_epoch = 0
        self._native_support = None
        self._scratch = _Scratch(len(self.node_ids))
        self._edge_scratch = _EdgeScratch(len(self.edge_ids))

    def _on_weight_change(self, edge_id: Optional[int], new_weight: float) -> None:
        if edge_id is None:
            self._weights_stale = True
            self._weights_epoch += 1
            return
        position = self.edge_index[edge_id]
        self._weights_epoch += 1
        self.edge_weight[position] = new_weight
        # The edge's (at most two) adjacency entries sit in its endpoints'
        # slices; a one-way edge has one, at its start node.
        indptr, adj_eid, adj_weight = self.indptr, self.adj_eid, self.adj_weight
        for node in (self.edge_start[position], self.edge_end[position]):
            for slot in range(indptr[node], indptr[node + 1]):
                if adj_eid[slot] == edge_id:
                    adj_weight[slot] = new_weight

    def refresh(self) -> "CSRGraph":
        """Bring the snapshot's weights up to date with the network; returns self."""
        if self._weights_stale:
            network = self.network
            edge_weight = self.edge_weight
            edge_weight[:] = [network.edge(edge_id).weight for edge_id in self.edge_ids]
            edge_index = self.edge_index
            self.adj_weight[:] = [edge_weight[edge_index[edge_id]] for edge_id in self.adj_eid]
            self._weights_stale = False
            self._weights_epoch += 1
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The live road network behind this snapshot."""
        network = self._network_ref()
        if network is None:
            raise ReferenceError("the RoadNetwork behind this CSR snapshot is gone")
        return network

    @property
    def node_count(self) -> int:
        """Number of nodes in the snapshot."""
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        """Number of edges in the snapshot."""
        return len(self.edge_ids)

    def index_of_node(self, node_id: int) -> int:
        """Dense index of *node_id*; raises :class:`NodeNotFoundError`."""
        try:
            return self.node_index[node_id]
        except KeyError as exc:
            raise NodeNotFoundError(node_id) from exc

    def index_of_edge(self, edge_id: int) -> int:
        """Dense index of *edge_id*; raises :class:`EdgeNotFoundError`."""
        try:
            return self.edge_index[edge_id]
        except KeyError as exc:
            raise EdgeNotFoundError(edge_id) from exc

    def neighbors_of_index(self, node_idx: int) -> List[Tuple[int, int, float]]:
        """``(edge_id, neighbor_index, weight)`` triples (diagnostics/tests)."""
        start, stop = self.indptr[node_idx], self.indptr[node_idx + 1]
        return [
            (self.adj_eid[slot], self.adj_node[slot], self.adj_weight[slot])
            for slot in range(start, stop)
        ]

    # ------------------------------------------------------------------
    # kernel support metadata
    # ------------------------------------------------------------------
    @property
    def weights_epoch(self) -> int:
        """Counter bumped on every weight patch.

        Derived per-weight metadata (the native kernel's numpy column
        mirrors) caches against this value and rebuilds lazily
        when it moves, so a storm of ``set_edge_weight`` calls costs one
        refresh at the next kernel use instead of one per call.

        Example::

            before = csr_snapshot(network).weights_epoch
            network.set_edge_weight(edge_id, 2.5)
            assert csr_snapshot(network).weights_epoch > before
        """
        return self._weights_epoch

    def current_native_support(self):
        """The cached :class:`~repro.network.native.NativeSupport`, or None.

        Returns None when no ``native`` batch built one yet or when the
        weights moved on since (:attr:`weights_epoch`).  Never builds: the
        monitors' influence flush reads it so that the vectorized span path
        runs only where the tick's engine already paid for the numpy
        mirrors — a ``csr`` tick never triggers the per-epoch rebuild.

        Example::

            support = csr_snapshot(network).current_native_support()
            print(support is not None)
        """
        support = self._native_support
        if support is not None and support.epoch == self._weights_epoch:
            return support
        return None

    # ------------------------------------------------------------------
    # scratch buffers
    # ------------------------------------------------------------------
    def acquire_scratch(self) -> _Scratch:
        """Borrow the reusable work arrays (fresh ones under reentrancy)."""
        scratch = self._scratch
        if scratch.in_use:
            return _Scratch(len(self.node_ids))
        scratch.in_use = True
        return scratch

    def acquire_edge_scratch(self) -> _EdgeScratch:
        """Borrow the reusable edge-marking buffer (fresh under reentrancy)."""
        scratch = self._edge_scratch
        if scratch.in_use:
            return _EdgeScratch(len(self.edge_ids))
        scratch.in_use = True
        return scratch


#: One cached snapshot per live network (weakly keyed so networks can die).
_SNAPSHOTS: "weakref.WeakKeyDictionary[RoadNetwork, CSRGraph]" = (
    weakref.WeakKeyDictionary()
)


def csr_snapshot(network: RoadNetwork) -> CSRGraph:
    """Return the up-to-date cached CSR snapshot of *network*.

    Example::

        snapshot = csr_snapshot(network)
        assert csr_snapshot(network) is snapshot   # cached per network
    """
    snapshot = _SNAPSHOTS.get(network)
    if snapshot is None:
        snapshot = CSRGraph(network)
        _SNAPSHOTS[network] = snapshot
        return snapshot
    # Inline fast path of refresh(): this runs once per search, so skip the
    # call when nothing changed (the overwhelmingly common case).
    if snapshot._weights_stale:
        snapshot.refresh()
    return snapshot


# ---------------------------------------------------------------------------
# graph partitioning (network-partitioned sharded execution)
# ---------------------------------------------------------------------------


def grow_partitions(csr: CSRGraph, parts: int) -> Dict[int, int]:
    """Partition the snapshot's nodes into *parts* region blocks.

    A deterministic metis-lite BFS grower: regions grow one at a time from
    the lowest unassigned dense index, absorbing unassigned neighbors in
    adjacency-slot order until the region reaches its size target
    ``ceil(remaining_nodes / remaining_parts)``; disconnected leftovers
    re-seed at the next unassigned index, so every node is assigned and no
    region is empty (``parts`` is clamped to the node count).  The result
    depends only on the snapshot's columns, so every process that rebuilds
    the snapshot over an identical network derives the identical partition.

    Returns:
        node id -> part index (0-based) for every node of the snapshot.

    Example::

        assignment = grow_partitions(csr_snapshot(network), parts=4)
        blocks = {part: [n for n, p in assignment.items() if p == part]
                  for part in range(4)}
    """
    n = len(csr.node_ids)
    parts = max(1, min(int(parts), n)) if n else 1
    assignment = [parts - 1] * n  # the last region takes every leftover
    indptr = csr.indptr
    adj_node = csr.adj_node
    cursor = 0
    remaining = n
    assigned = bytearray(n)
    for part in range(parts - 1):
        target = -(-remaining // (parts - part))
        size = 0
        queue: deque = deque()
        enqueued = bytearray(n)
        while size < target:
            if not queue:
                while cursor < n and assigned[cursor]:
                    cursor += 1
                if cursor >= n:
                    break
                queue.append(cursor)
                enqueued[cursor] = 1
            u = queue.popleft()
            if assigned[u]:
                continue
            assigned[u] = 1
            assignment[u] = part
            size += 1
            for slot in range(indptr[u], indptr[u + 1]):
                v = adj_node[slot]
                if not assigned[v] and not enqueued[v]:
                    enqueued[v] = 1
                    queue.append(v)
        remaining -= size
    node_ids = csr.node_ids
    return {node_ids[index]: assignment[index] for index in range(n)}


def partition_block(
    csr: CSRGraph, assignment: Dict[int, int], part: int
) -> Tuple[List[int], List[int], List[int]]:
    """Block / halo / local-edge split of one partition.

    Returns ``(block, halo, local_edge_ids)``:

    * ``block`` — node ids assigned to *part*, in snapshot (dense) order;
    * ``local_edge_ids`` — edges with at least one endpoint in the block
      (edges straddling a cut are local to **both** sides), in snapshot
      edge order, which is the network's insertion order;
    * ``halo`` — the one-hop boundary: out-of-block endpoints of the local
      edges, in first-appearance order.

    A shard holding ``block + halo`` nodes and the local edges can settle
    any search exactly up to the halo ring; reaching a halo node is the
    signal that the search spilled into a neighboring shard.

    Example::

        block, halo, edges = partition_block(csr, assignment, part=0)
    """
    node_ids = csr.node_ids
    block = [node_id for node_id in node_ids if assignment[node_id] == part]
    local_edge_ids: List[int] = []
    halo: List[int] = []
    halo_seen: set = set()
    edge_start = csr.edge_start
    edge_end = csr.edge_end
    for position, edge_id in enumerate(csr.edge_ids):
        a = node_ids[edge_start[position]]
        b = node_ids[edge_end[position]]
        a_in = assignment[a] == part
        b_in = assignment[b] == part
        if not (a_in or b_in):
            continue
        local_edge_ids.append(edge_id)
        outside = b if a_in and not b_in else a if b_in and not a_in else None
        if outside is not None and outside not in halo_seen:
            halo_seen.add(outside)
            halo.append(outside)
    return block, halo, local_edge_ids
