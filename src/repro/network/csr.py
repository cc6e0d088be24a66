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

The snapshot registers a weight listener with the network, so a
``set_edge_weight`` call patches the affected column entries in O(degree)
instead of forcing a rebuild; topology edits (add/remove node or edge) bump
the network's ``topology_version`` and cause a lazy full rebuild on the next
:func:`csr_snapshot` call.  One snapshot is cached per network.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import EdgeNotFoundError, MonitoringError, NodeNotFoundError
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
        # Weak references in both directions: a strong back-reference would
        # keep the snapshot-cache key alive forever, and registering a bound
        # method as the listener would pin every snapshot for the network's
        # whole lifetime.  The wrapper below forwards weight changes while
        # the snapshot lives and unregisters itself once it is gone, so
        # loop-constructed snapshots cost at most one stale closure until
        # the next weight change.
        self._network_ref = weakref.ref(network)
        self._weights_stale = False
        self.rebuild()
        self._register_listener(network)

    def _register_listener(self, network: RoadNetwork) -> None:
        """Register the weak-reference weight forwarder on *network*.

        Shared by the owning constructor and :func:`attach_shared_csr`, so
        listener lifetime semantics cannot diverge between owned and
        attached snapshots.
        """
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
    def rebuild(self) -> None:
        """Rebuild every column from the network's current state."""
        network = self.network
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
                inc_edge.append(self.edge_index[edge_id])
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
        self._build_entry_slots()
        self._topology_version = network.topology_version
        self._weights_stale = False
        self._weights_epoch = getattr(self, "_weights_epoch", -1) + 1
        self._dial_support = None
        self._native_support = None
        self._scratch = _Scratch(len(self.node_ids))
        self._edge_scratch = _EdgeScratch(len(self.edge_ids))

    def _build_entry_slots(self) -> None:
        """Derive the per-dense-edge adjacency slots from ``adj_eid``.

        Used for incremental weight patching; shared by :meth:`rebuild` and
        :func:`attach_shared_csr`.
        """
        entry_slots: List[List[int]] = [[] for _ in self.edge_ids]
        edge_index = self.edge_index
        for slot, edge_id in enumerate(self.adj_eid):
            entry_slots[edge_index[edge_id]].append(slot)
        self._entry_slots = entry_slots

    def _on_weight_change(self, edge_id: Optional[int], new_weight: float) -> None:
        if edge_id is None:
            self._weights_stale = True
            self._weights_epoch += 1
            return
        position = self.edge_index.get(edge_id)
        if position is None:
            # Edge added after the snapshot; the topology version already
            # differs, so the next csr_snapshot() call rebuilds everything.
            return
        self._weights_epoch += 1
        self.edge_weight[position] = new_weight
        adj_weight = self.adj_weight
        for slot in self._entry_slots[position]:
            adj_weight[slot] = new_weight

    def apply_weight_deltas(self, deltas: Iterable[Tuple[int, float]]) -> None:
        """Patch the weight columns from ``(edge_id, new_weight)`` deltas.

        The manual counterpart of the network weight listener, for callers
        that hold a snapshot without a live network (or detached one with
        :meth:`close`).  The sharded workers do *not* go through here —
        their freshness flows through the listener that
        :func:`attach_shared_csr` registers, driven by ``apply_batch`` on
        the worker's network replica.  Unknown edge ids are ignored (they
        belong to a newer topology; the version check in
        :func:`csr_snapshot` handles the rebuild).
        """
        for edge_id, new_weight in deltas:
            self._on_weight_change(edge_id, new_weight)

    def refresh(self) -> "CSRGraph":
        """Bring the snapshot up to date with the network; returns self."""
        if self._topology_version != self.network.topology_version:
            self.rebuild()
        elif self._weights_stale:
            network = self.network
            edge_weight = self.edge_weight
            adj_weight = self.adj_weight
            for position, edge_id in enumerate(self.edge_ids):
                weight = network.edge(edge_id).weight
                edge_weight[position] = weight
                for slot in self._entry_slots[position]:
                    adj_weight[slot] = weight
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
        """Counter bumped on every weight patch (and on every rebuild).

        Derived per-weight metadata (the dial kernel's quantization state,
        numpy column mirrors) caches against this value and rebuilds lazily
        when it moves, so a storm of ``set_edge_weight`` calls costs one
        refresh at the next kernel use instead of one per call.

        Example::

            before = csr_snapshot(network).weights_epoch
            network.set_edge_weight(edge_id, 2.5)
            assert csr_snapshot(network).weights_epoch > before
        """
        return self._weights_epoch

    def dial_support(self):
        """The bucket-queue kernel's quantization + numpy metadata (cached).

        Returns the :class:`repro.network.dial.DialSupport` for the current
        weights, rebuilding it only when :attr:`weights_epoch` moved since
        the last call.  The support object decides whether Dial quantization
        is usable (positive minimum weight, bounded weight spread) and holds
        the numpy mirrors of the numeric columns that the vectorized paths
        gather over.

        Example::

            support = csr_snapshot(network).dial_support()
            print(support.usable, support.min_weight)
        """
        support = self.current_dial_support()
        if support is None:
            from repro.network.dial import DialSupport

            support = self._dial_support = DialSupport.build(self)
        return support

    def current_dial_support(self):
        """The cached :meth:`dial_support`, or None when the weights moved on.

        Never builds.  The monitors' influence flush reads it so that the
        vectorized span path runs only where the tick's engine already paid
        for the support — a ``csr`` tick never triggers the per-epoch
        ``numpy.asarray`` mirror rebuild.

        Example::

            support = csr_snapshot(network).current_dial_support()
            print(support is not None)
        """
        support = self._dial_support
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
    # property indirection when nothing changed (the overwhelmingly common
    # case).
    if (
        snapshot._topology_version != network._topology_version
        or snapshot._weights_stale
    ):
        snapshot.refresh()
    return snapshot


def install_snapshot(network: RoadNetwork, snapshot: CSRGraph) -> None:
    """Make *snapshot* the cached CSR snapshot of *network*.

    Sharded workers attach a shared-memory snapshot and install it here so
    every kernel path (:func:`repro.core.search.expand_knn` and the
    incremental maintenance code) picks it up through :func:`csr_snapshot`
    instead of building a private copy.
    """
    _SNAPSHOTS[network] = snapshot


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


# ---------------------------------------------------------------------------
# shared-memory transport (sharded query execution)
# ---------------------------------------------------------------------------

#: The numeric CSR columns shipped through shared memory, with their
#: ``memoryview`` formats.  8-byte columns come first so every view stays
#: naturally aligned.
_SHARED_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("indptr", "q"),
    ("adj_node", "q"),
    ("adj_eid", "q"),
    ("adj_weight", "d"),
    ("edge_weight", "d"),
    ("edge_start", "q"),
    ("edge_end", "q"),
    ("inc_indptr", "q"),
    ("inc_edge", "q"),
    ("adj_forward", "B"),
    ("edge_oneway", "B"),
)


def _column_view(buf: memoryview, fmt: str, offset: int, length: int) -> memoryview:
    """The *length*-item column of format *fmt* at byte *offset* of *buf*."""
    return buf[offset : offset + length * array(fmt).itemsize].cast(fmt)


@dataclass(frozen=True)
class SharedCSRHandle:
    """Picklable descriptor of a CSR snapshot exported to shared memory.

    Ship this to a worker process and call :func:`attach_shared_csr` there.
    ``layout`` holds one ``(column, format, offset, length)`` entry per
    numeric column inside the single shared-memory block ``shm_name``;
    ``format`` is the column's :class:`memoryview` / :mod:`array` type code.

    Example::

        shared = SharedCSR(csr_snapshot(network))
        worker_view = attach_shared_csr(replica_network, shared.handle)
    """

    shm_name: str
    layout: Tuple[Tuple[str, str, int, int], ...]
    node_ids: Tuple[int, ...]
    edge_ids: Tuple[int, ...]
    topology_version: int


class SharedCSR:
    """Parent-side owner of one CSR snapshot exported to shared memory.

    The constructor packs every numeric column of *csr* into a single
    ``multiprocessing.shared_memory`` block and — by default — re-points the
    snapshot's own columns at zero-copy ``memoryview`` slices of it.  From
    then on the snapshot's incremental weight patching (driven by the
    network's weight listener) writes straight into shared memory, so
    attached workers observe every weight change without any rebuild or
    message.

    The owner must call :meth:`unlink` (or :meth:`close` followed by
    :meth:`unlink`) when the workers are gone; the block is otherwise leaked
    until the resource tracker reaps it.

    Example::

        shared = SharedCSR(csr_snapshot(network))
        handle = shared.handle          # picklable; send to workers
        ...
        shared.unlink()                 # after every worker detached
    """

    def __init__(self, csr: CSRGraph, adopt: bool = True) -> None:
        """Export *csr* to shared memory.

        Args:
            csr: the snapshot to export.
            adopt: when True (default) the snapshot's columns are replaced
                by the shared memoryviews, making the exporting process the
                single writer that keeps shared weights fresh.
        """
        from multiprocessing import shared_memory

        columns = [(name, array(fmt, getattr(csr, name))) for name, fmt in _SHARED_COLUMNS]
        layout: List[Tuple[str, str, int, int]] = []
        offset = 0
        for name, column in columns:
            layout.append((name, column.typecode, offset, len(column)))
            offset += len(column) * column.itemsize
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        self._unlinked = False
        self._adopted_ref = weakref.ref(csr) if adopt else None
        for (name, column), (_, fmt, col_offset, length) in zip(columns, layout):
            view = _column_view(self._shm.buf, fmt, col_offset, length)
            view[:] = column
            if adopt:
                setattr(csr, name, view)
        self.handle = SharedCSRHandle(
            shm_name=self._shm.name,
            layout=tuple(layout),
            node_ids=tuple(csr.node_ids),
            edge_ids=tuple(csr.edge_ids),
            topology_version=csr._topology_version,
        )

    def close(self) -> None:
        """Close this process's mapping of the block (idempotent).

        An adopted snapshot (``adopt=True``) is first restored to private
        list columns, so its views release the buffer and the mapping can
        actually unmap; the snapshot keeps working in-process afterwards.
        """
        adopted = self._adopted_ref() if self._adopted_ref is not None else None
        if adopted is not None:
            for name, _, _, _ in self.handle.layout:
                column = getattr(adopted, name, None)
                if isinstance(column, memoryview):
                    setattr(adopted, name, column.tolist())
            # Engine supports may view the block too; they rebuild on demand.
            adopted._dial_support = adopted._native_support = None
            self._adopted_ref = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - an external view is alive
            # Someone else still holds a view into the buffer; the mapping
            # dies with the process instead.
            pass

    def unlink(self) -> None:
        """Remove the shared-memory block from the system (idempotent)."""
        if not self._unlinked:
            self._unlinked = True
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass


#: Serializes the pre-3.13 register-suppression window in _attach_block.
_ATTACH_LOCK = threading.Lock()


def _attach_block(shared_memory, name: str):
    """Open an existing shared-memory block without tracking its lifetime.

    The exporter owns the block; if every attaching process also registered
    it with its resource tracker, the tracker would double-unlink at exit
    and log spurious KeyErrors.  Python 3.13 has ``track=False`` for this;
    earlier versions need the register call silenced for the duration of
    the constructor.  The lock serializes concurrent attaches; note that on
    those older versions an *unrelated* tracked ``SharedMemory`` created by
    another thread during the patch window would escape tracking — attach
    from a single thread (the sharded workers do) if that matters.
    """
    import sys

    if sys.version_info >= (3, 13):  # pragma: no cover - newer interpreters
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


def attach_shared_csr(
    network: RoadNetwork,
    handle: SharedCSRHandle,
    zero_copy: bool = False,
) -> CSRGraph:
    """Build a :class:`CSRGraph` over an exported shared-memory snapshot.

    Args:
        network: the local replica of the exporting process's network; its
            ``topology_version`` must match the handle's (the replica and
            the snapshot must describe the same topology).
        handle: the exporter's :attr:`SharedCSR.handle`.
        zero_copy: when True the numeric columns are memoryviews straight
            into shared memory — no per-worker copy, and weight patches
            written by the exporter are visible immediately.  The default
            (False, matching the sharded server's) copies the columns into
            private Python lists once per topology version — faster
            element access in the Python hot loop; freshness then relies
            on the weight listener registered on *network*, fed by the
            edge deltas broadcast in every update batch.

    The attached snapshot registers a weight listener on *network* in both
    modes, so locally applied batches keep it self-consistent; under the
    sharded-server protocol every process applies identical deltas, making
    the concurrent shared-memory writes idempotent.  Call
    :meth:`CSRGraph.close` before dropping the snapshot to detach the
    listener; the shared block itself is owned (and unlinked) by the
    exporter.

    Raises:
        MonitoringError: when the topology versions disagree.

    Example::

        shared = SharedCSR(csr_snapshot(network))
        replica = pickle.loads(pickle.dumps(network))   # worker-side copy
        attached = attach_shared_csr(replica, shared.handle)
        install_snapshot(replica, attached)
    """
    from multiprocessing import shared_memory

    if network.topology_version != handle.topology_version:
        raise MonitoringError(
            f"shared CSR handle is for topology_version {handle.topology_version}, "
            f"but the local network is at {network.topology_version}"
        )
    shm = _attach_block(shared_memory, handle.shm_name)

    csr = CSRGraph.__new__(CSRGraph)
    csr._network_ref = weakref.ref(network)
    csr._weights_stale = False
    csr.node_ids = list(handle.node_ids)
    csr.node_index = {node_id: index for index, node_id in enumerate(csr.node_ids)}
    csr.edge_ids = list(handle.edge_ids)
    csr.edge_index = {edge_id: index for index, edge_id in enumerate(csr.edge_ids)}
    for name, fmt, offset, length in handle.layout:
        view = _column_view(shm.buf, fmt, offset, length)
        if zero_copy:
            setattr(csr, name, view)
        else:
            setattr(csr, name, view.tolist())
            view.release()
    if not zero_copy:
        shm.close()
    csr._build_entry_slots()
    csr._topology_version = handle.topology_version
    csr._weights_epoch = 0
    csr._dial_support = None
    csr._native_support = None
    csr._scratch = _Scratch(len(csr.node_ids))
    csr._edge_scratch = _EdgeScratch(len(csr.edge_ids))
    csr._register_listener(network)
    if zero_copy:
        # Set last: attributes are cleared in insertion order, so the views
        # and the engine supports built over them release the mapping
        # before the block closes.
        csr._shm = shm
    return csr
