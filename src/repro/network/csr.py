"""The road network's column store, and its compressed-sparse-row adjacency.

A :class:`~repro.network.graph.RoadNetwork` keeps its nodes and edges in
one :class:`CSRGraph`: dense integer indices, parallel columns per node and
per edge, and — once the network is frozen — the adjacency as flat columns
sliced per node by ``indptr``.  The monitoring hot path (the Figure-2
expansion and every resumed search) iterates those columns directly;
iterating per-node lists of edge objects would cost several attribute
lookups and a tuple allocation per neighbor, which at production scale
dwarfs the algorithmic work the paper's IMA/GMA save.

* nodes and edges are mapped to dense integer indices,
* adjacency is three parallel flat columns (``adj_node``, ``adj_eid``,
  ``adj_weight``) sliced per node by ``indptr``, with one entry per
  *traversable* direction (one-way edges appear once),
* ``adj_forward`` records whether an entry leaves the edge's start node, so
  object offsets along the edge can be computed without touching the edge.

There is one current-weight column, ``edge_weight``; a weight write
(:meth:`CSRGraph.set_weight`) also patches the edge's adjacency entries,
which it finds through the per-edge slot columns.  :func:`csr_snapshot`
freezes a network and returns its store: there is no second copy to keep
in step.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError

if TYPE_CHECKING:  # pragma: no cover - typing only
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
    """The column store of one road network: its nodes, edges and adjacency.

    A :class:`~repro.network.graph.RoadNetwork` owns exactly one; this is
    where its nodes and edges live, not a copy of them.  Every column is
    indexed by dense position and is read-only to everyone but the network.

    Attributes:
        node_ids: dense index -> original node id.
        node_index: original node id -> dense index.
        node_x / node_y: coordinates per dense node index (``float64``).
        edge_ids: dense edge index -> original edge id.
        edge_index: original edge id -> dense edge index (its values are
            the positions, in order).
        edge_start / edge_end: endpoint node indices per dense edge index.
        edge_weight: current weight per dense edge index — the network's one
            current-weight column.
        edge_base_weight: initial weight per dense edge index (``float64``).
        edge_oneway: 1 for one-way edges.

    Built when the network is frozen (:attr:`frozen`):
        indptr: per-node slice boundaries into the ``adj_*`` columns.
        adj_node: neighbor *node index* per adjacency entry.
        adj_eid: original *edge id* per entry (for edge-table lookups).
        adj_weight: current weight per entry, written with ``edge_weight``.
        adj_forward: 1 when the entry leaves the edge's start node.
        inc_indptr: per-node slice boundaries into ``inc_edge``.
        inc_edge: dense edge *positions* incident to each node.  Unlike the
            ``adj_*`` columns this incidence view contains every incident
            edge regardless of traversability (a one-way edge appears at
            both endpoints), which is what influence-region computations
            need.
        edge_start_slot: each edge's adjacency entry at its start node.
        edge_end_slot: its entry at its end node, -1 for a one-way edge.

    The columns the settle loop and the influence walk read per entry
    (``node_ids``, ``adj_*``, ``inc_edge``, ``edge_start`` / ``edge_end``
    and ``edge_weight``) are Python lists: an ``array`` read boxes a fresh
    number on every access, which measured as fast or slower there and,
    for ``adj_weight`` (whose floats are ``edge_weight``'s), no smaller.
    The per-node offsets (``indptr``, ``inc_indptr``), read twice per
    settled node, and the columns read once per edge or per weight write
    are ``array`` columns: smaller, and no slower.

    Example::

        snapshot = csr_snapshot(network)       # freezes; the network's own store
        start, stop = snapshot.indptr[0], snapshot.indptr[1]
        print(snapshot.adj_node[start:stop])   # neighbors of dense node 0
    """

    def __init__(self) -> None:
        self.node_ids: List[int] = []
        self.node_index: Dict[int, int] = {}
        self.node_x = array("d")
        self.node_y = array("d")
        self.edge_ids: List[int] = []
        self.edge_index: Dict[int, int] = {}
        self.edge_start: List[int] = []
        self.edge_end: List[int] = []
        self.edge_weight: List[float] = []
        self.edge_base_weight = array("d")
        self.edge_oneway = bytearray()
        self.frozen = False
        self._weights_epoch = 0
        self._native_support = None
        self._scratch = None
        self._edge_scratch = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Build the adjacency and incidence columns (idempotent).

        One counting sort over the edge columns: each node's entries come
        out in edge order, which is the order a node's edges were added in.
        """
        if self.frozen:
            return
        node_count = len(self.node_ids)
        starts, ends, oneway = self.edge_start, self.edge_end, self.edge_oneway
        degree = [0] * node_count
        out_degree = [0] * node_count
        for start, end, flag in zip(starts, ends, oneway):
            degree[start] += 1
            degree[end] += 1
            out_degree[start] += 1
            if not flag:
                out_degree[end] += 1
        inc_indptr = list(accumulate(degree, initial=0))
        indptr = list(accumulate(out_degree, initial=0))
        del degree, out_degree
        inc_next = inc_indptr[:-1]
        adj_next = indptr[:-1]
        inc_edge = [0] * inc_indptr[-1]
        entries = indptr[-1]
        adj_node = [0] * entries
        adj_eid = [0] * entries
        adj_weight = [0.0] * entries
        adj_forward = bytearray(entries)
        edge_count = len(self.edge_ids)
        start_slot = array("i", bytes(4 * edge_count))
        end_slot = array("i", [-1]) * edge_count
        edge_ids, weights = self.edge_ids, self.edge_weight
        # edge_index's values are the positions: reuse those int objects.
        for position, start, end, flag in zip(self.edge_index.values(), starts, ends, oneway):
            edge_id, weight = edge_ids[position], weights[position]
            slot = inc_next[start]
            inc_edge[slot] = position
            inc_next[start] = slot + 1
            slot = inc_next[end]
            inc_edge[slot] = position
            inc_next[end] = slot + 1
            slot = adj_next[start]
            adj_next[start] = slot + 1
            adj_node[slot], adj_eid[slot], adj_weight[slot] = end, edge_id, weight
            adj_forward[slot] = 1
            start_slot[position] = slot
            if not flag:
                slot = adj_next[end]
                adj_next[end] = slot + 1
                adj_node[slot], adj_eid[slot], adj_weight[slot] = start, edge_id, weight
                end_slot[position] = slot
        self.indptr = array("i", indptr)
        self.adj_node = adj_node
        self.adj_eid = adj_eid
        self.adj_weight = adj_weight
        self.adj_forward = adj_forward
        self.inc_indptr = array("i", inc_indptr)
        self.inc_edge = inc_edge
        self.edge_start_slot = start_slot
        self.edge_end_slot = end_slot
        self.frozen = True

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def set_weight(self, position: int, weight: float) -> None:
        """Write one edge's current weight, and its adjacency entries once frozen."""
        self.edge_weight[position] = weight
        if self.frozen:
            adj_weight = self.adj_weight
            adj_weight[self.edge_start_slot[position]] = weight
            end_slot = self.edge_end_slot[position]
            if end_slot >= 0:
                adj_weight[end_slot] = weight
        self._weights_epoch += 1

    def set_weights(self, weights: Sequence[float]) -> None:
        """Overwrite the whole current-weight column, in place."""
        edge_weight = self.edge_weight
        edge_weight[:] = weights
        if self.frozen:
            adj_weight = self.adj_weight
            for weight, start_slot, end_slot in zip(
                edge_weight, self.edge_start_slot, self.edge_end_slot
            ):
                adj_weight[start_slot] = weight
                if end_slot >= 0:
                    adj_weight[end_slot] = weight
        self._weights_epoch += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of nodes in the store."""
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        """Number of edges in the store."""
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
        """Counter bumped on every weight write.

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
    # scratch buffers (allocated on first use: a coordinator never searches)
    # ------------------------------------------------------------------
    def acquire_scratch(self) -> _Scratch:
        """Borrow the reusable work arrays (fresh ones under reentrancy)."""
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = _Scratch(len(self.node_ids))
        if scratch.in_use:
            return _Scratch(len(self.node_ids))
        scratch.in_use = True
        return scratch

    def acquire_edge_scratch(self) -> _EdgeScratch:
        """Borrow the reusable edge-marking buffer (fresh under reentrancy)."""
        scratch = self._edge_scratch
        if scratch is None:
            scratch = self._edge_scratch = _EdgeScratch(len(self.edge_ids))
        if scratch.in_use:
            return _EdgeScratch(len(self.edge_ids))
        scratch.in_use = True
        return scratch


def csr_snapshot(network: "RoadNetwork") -> CSRGraph:
    """Freeze *network* and return its column store.

    The store is the network's own, so it is always current: a weight
    write lands in it directly.

    Example::

        snapshot = csr_snapshot(network)
        assert csr_snapshot(network) is snapshot   # one store per network
    """
    return network.freeze()


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
