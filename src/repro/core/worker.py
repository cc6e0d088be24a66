"""Shard engine: the per-shard execution state of the sharded server.

A :class:`ShardEngine` owns one monitor over its shard of the road network
— the whole network, or one partition block plus its one-hop halo —
together with the objects on that shard's edges and the queries the shard
owns.  It is built from one :class:`ShardInit` and answers messages with
replies through :meth:`ShardEngine.handle`.  Of an N-shard fleet, the
coordinator (:class:`~repro.core.sharding.ShardedMonitoringServer`) hosts
the last shard's engine in its own process and starts one worker process
per other shard; a worker (:func:`run_shard_worker`) is a loop around one
engine behind a ``multiprocessing`` pipe.  The messages:

* ``("tick", shared_record, query_record)`` — two ``RPUB`` batch records
  (:func:`~repro.core.events.encode_batch`): the timestamp's net object and
  edge updates, encoded once for the whole fleet, and the query updates
  this shard owns.  :func:`local_batch` keeps the updates that land on this
  shard's edges; the engine applies that batch, runs the monitor and
  replies ``("report", payload)`` with the tick report fields and the full
  results of every changed query.
* ``("snapshot",)`` — reply ``("snapshot", pickled_monitor)`` and keep
  serving: the coordinator packs the blobs into a fleet snapshot
  (:meth:`~repro.core.sharding.ShardedMonitoringServer.snapshot_state`)
  that a restored server rebuilds its shards from.
* ``("expand", requests)`` — run one exact network expansion per request
  (fresh, or a *frontier continuation* seeded at halo nodes) and reply
  ``("expanded", replies)``, each reply ``(neighbors, halo_hits)``: the
  settled halo nodes are what the coordinator forwards to neighboring
  shards as resume requests.
* ``("rss",)`` — reply ``("rss", peak_rss_bytes)`` of this process.
* ``("stop",)`` — shut the worker down (the worker loop's own message).

A local answer is exact iff its search never settled a halo node (any
shortest path leaving the block crosses the halo at its first exit).  With
a non-empty halo the engine *probes* every potentially affected query after
each tick with a fixed-radius re-expansion and **escalates** the ones whose
probe touched the halo: it unregisters them and reports their ids, and the
coordinator takes them over.  An empty halo — the whole network, or a
single block — makes every local answer exact, so nothing is probed.

The CSR adjacency is never shipped: the shard's network builds it when it
is frozen, exactly as a single-process server's does, and a weight write
lands in it directly as the engine applies each tick's edge updates.  The
network decodes from its columnar record (:mod:`repro.network.record`)
with the coordinator's node and edge order, so the shard's dense
renumbering — and with it every heap tie-break — matches the
coordinator's.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from array import array
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.events import ObjectUpdate, QueryUpdate, UpdateBatch, apply_batch, decode_batch
from repro.core.results import KnnResult
from repro.core.search import expand_knn
from repro.exceptions import MonitoringError
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.record import decode_network

#: Multiplicative (Knuth) hash spreading query ids across shards; plain
#: modulo would collapse ids sharing a stride that divides the shard count.
#: The *high* half of the 32-bit product is used — the low bits preserve
#: stride divisibility and would suffer the same collapse.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = 0xFFFFFFFF


def shard_of(query_id: int, shards: int) -> int:
    """Deterministic shard index of *query_id* among *shards* shards.

    Example::

        shard_of(1_000_000, 4)  # same value in every process, every run
    """
    return (((query_id * _HASH_MULTIPLIER) & _HASH_MASK) >> 16) % shards


@dataclass
class ShardInit:
    """Everything a :class:`ShardEngine` needs to build its state.

    The network travels as one pre-encoded network record plus its current
    weight column and is decoded by the engine: in the worker process, or
    — for the coordinator's own shard — in the coordinator after every
    worker has started, so no forked worker inherits the decoded copy.  The
    ``spawn`` start method ships the bytes without a decode/re-encode round
    trip.
    """

    shard_id: int
    algorithm: str
    #: this shard's network as one :mod:`repro.network.record`; ``None``
    #: when ``monitor_blob`` is set (a restored monitor embeds its own
    #: network).
    network_blob: Optional[bytes]
    #: the current weight of every edge of ``network_blob``, in its edge
    #: order (the record holds base weights only).
    weights: Optional[array]
    #: every object placement; the engine keeps the ones on its own edges.
    objects: Dict[int, NetworkLocation]
    #: query id -> (location, k-or-QuerySpec); the sharded server ships the
    #: full :class:`~repro.core.queries.QuerySpec` so every query type
    #: (k-NN, range, aggregate k-NN) partitions transparently.
    queries: Dict[int, Tuple[NetworkLocation, object]] = field(default_factory=dict)
    #: a pickled monitor from a previous shard's ``("snapshot",)`` reply;
    #: when set, the engine resumes from it — network replica, edge table,
    #: registered queries and the exact per-query float history included —
    #: instead of building fresh state from the fields above.
    monitor_blob: Optional[bytes] = None
    #: the one-hop halo node ids bordering this shard's block; empty for a
    #: whole-network or single-block shard, where nothing escalates.
    halo_nodes: FrozenSet[int] = frozenset()


def _plain_result(result: KnnResult) -> KnnResult:
    """Normalize a result to builtin ints/floats for the IPC boundary.

    Every engine computes builtin floats, but object ids are whatever the
    caller registered: an int subclass (a numpy integer, say) would
    otherwise cross the pipe and reach the merged results as is.
    """
    return KnnResult(
        query_id=int(result.query_id),
        k=int(result.k),
        neighbors=tuple(
            (int(object_id), float(distance))
            for object_id, distance in result.neighbors
        ),
        radius=float(result.radius),
    )


def local_batch(
    network: RoadNetwork, shared: UpdateBatch, query_updates: Sequence[QueryUpdate]
) -> UpdateBatch:
    """This shard's part of one tick: the updates on *network*'s edges.

    *shared* holds the whole fleet's net object and edge updates.  An edge
    update is kept when *network* holds the edge; an object update keeps
    the side of it that lies on *network*'s edges, so an object moving onto
    them becomes an insertion, one leaving them a deletion, and one that
    never touches them is dropped.  A whole-network shard keeps every update
    as it is.  The result carries *query_updates* (this shard's own) and is
    marked net: filtering a net batch names no entity twice.

    Example::

        batch = local_batch(network, decode_batch(shared), [])
        assert batch.net() is batch
    """
    has_edge = network.has_edge
    objects: List[ObjectUpdate] = []
    for update in shared.object_updates:
        old, new = update.old_location, update.new_location
        if old is not None and not has_edge(old.edge_id):
            old = None
        if new is not None and not has_edge(new.edge_id):
            new = None
        if old is update.old_location and new is update.new_location:
            objects.append(update)
        elif old is not None or new is not None:
            objects.append(ObjectUpdate(update.object_id, old, new))
    return UpdateBatch(
        timestamp=shared.timestamp,
        object_updates=objects,
        query_updates=list(query_updates),
        edge_updates=[update for update in shared.edge_updates if has_edge(update.edge_id)],
    )._mark_net()


def _probe_escalations(
    monitor,
    network: RoadNetwork,
    edge_table: EdgeTable,
    halo_nodes: FrozenSet[int],
    query_ids: Iterable[int],
) -> List[int]:
    """Return the sorted registered query ids whose local answer may be wrong.

    A query's locally computed result is exact iff no shortest path to a
    reported neighbor (nor any path that could have produced a closer one)
    leaves the partition block: any full-graph path that exits the block
    crosses a halo node at its first exit, and the path prefix up to that
    crossing runs entirely over local edges.  So re-expanding with
    ``fixed_radius=result.radius`` — which settles nodes at distance
    *exactly* the radius too, unlike the exclusive k-NN stop rule — and
    checking the settled set against the halo is a conservative, exact
    containment test: no settled halo node means no shorter path can exist
    outside the block.

    Escalated unconditionally: aggregate queries (their aggregation points
    may live on other shards' edges) and queries whose local radius is
    ``inf`` (fewer than *k* objects visible locally — the real neighbors may
    be anywhere).  Only a shard with a non-empty halo probes at all.
    """
    escalated: List[int] = []
    registered = monitor.query_ids()
    for query_id in sorted(query_ids):
        if query_id not in registered:
            continue
        spec = monitor.query_spec(query_id)
        if spec.kind == "aggregate_knn":
            escalated.append(query_id)
            continue
        radius = float(monitor.result_of(query_id).radius)
        if radius == float("inf"):
            escalated.append(query_id)
            continue
        probe = expand_knn(
            network,
            edge_table,
            1,
            query_location=monitor.query_location(query_id),
            fixed_radius=radius,
        )
        if any(node_id in halo_nodes for node_id in probe.state.node_dist):
            escalated.append(query_id)
    return escalated


def _serve_expansions(network, edge_table, halo_nodes, requests):
    """Answer one ``("expand", requests)`` message of the cross-shard protocol.

    Each request is ``(k, query_location, seed_nodes, candidates,
    fixed_radius)``; exactly one of *query_location* (the owning shard's
    fresh round) and *seed_nodes* (a frontier continuation forwarded by the
    coordinator) is set.  The reply per request is ``(neighbors, halo_hits)``
    where *halo_hits* lists every settled halo node as ``(node_id,
    distance)`` — the continuations the coordinator may forward onward.
    """
    replies = []
    for k, query_location, seed_nodes, candidates, fixed_radius in requests:
        outcome = expand_knn(
            network,
            edge_table,
            k,
            query_location=query_location,
            seed_nodes=seed_nodes,
            candidates=candidates,
            fixed_radius=fixed_radius,
        )
        neighbors = [
            (int(object_id), float(distance))
            for object_id, distance in outcome.neighbors
        ]
        halo_hits = [
            (int(node_id), float(distance))
            for node_id, distance in outcome.state.node_dist.items()
            if node_id in halo_nodes and distance is not None
        ]
        replies.append((neighbors, halo_hits))
    return replies


def _peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes (0 when unavailable).

    Prefers ``VmHWM`` from ``/proc/self/status`` over
    ``getrusage().ru_maxrss``: on Linux ``ru_maxrss`` is per-task
    accounting that survives ``exec``, so even a ``spawn``-ed worker
    reports the *parent's* footprint at fork time, not its own state.
    ``VmHWM`` is the high-water mark of the current address space, which
    a spawned worker owns outright — the honest per-worker figure.
    (A forked worker's ``VmHWM`` still starts at the parent's resident
    size — copy-on-write pages are resident from birth — so memory
    comparisons between partitioning modes must use ``spawn``.)
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except Exception:
        pass
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        return int(peak) if sys.platform == "darwin" else int(peak) * 1024
    except Exception:
        return 0


def _build_state(init: ShardInit):
    """Construct (or restore) the shard-local network state and monitor."""
    # Imported here (not at module top) to keep the worker import graph free
    # of a server <-> worker cycle.
    from repro.core.server import ALGORITHMS

    if init.monitor_blob is not None:
        # Restore path: the pickled monitor carries its own network replica
        # and edge table; re-announce the current results of every resumed
        # query.
        monitor = pickle.loads(init.monitor_blob)
        network: RoadNetwork = monitor._network
        edge_table: EdgeTable = monitor._edge_table
        results = {
            query_id: _plain_result(monitor.result_of(query_id))
            for query_id in monitor.query_ids()
        }
        # Restored monitors carry only queries that were contained at
        # snapshot time (boundary queries live in the coordinator), so no
        # registration-time probe is needed.
        return network, edge_table, monitor, results, []

    network, _ = decode_network(init.network_blob)
    network.restore_weights(init.weights, network.weight_version)
    edge_table = EdgeTable(network, build_spatial_index=False)
    for object_id, location in init.objects.items():
        if network.has_edge(location.edge_id):
            edge_table.insert_object(object_id, location)
    monitor = ALGORITHMS[init.algorithm](network, edge_table)
    results: Dict[int, KnnResult] = {}
    for query_id, (location, k) in init.queries.items():
        results[query_id] = _plain_result(monitor.register_query(query_id, location, k))
    escalated: List[int] = []
    if init.halo_nodes:
        escalated = _probe_escalations(
            monitor, network, edge_table, init.halo_nodes, list(results)
        )
        for query_id in escalated:
            monitor.unregister_query(query_id)
            results.pop(query_id, None)
    return network, edge_table, monitor, results, escalated


class ShardEngine:
    """One shard's state and the handler of every message it serves.

    Built from a :class:`ShardInit`; :attr:`initial` holds what the shard
    announces once built, ``(initial_results, escalated_ids)``
    (*initial_results* covers every query the shard holds; *escalated_ids*
    is empty when the halo is).  :meth:`handle` answers one message with
    its reply and raises when the message cannot be served.  A worker
    process is a loop around one engine (:func:`run_shard_worker`); the
    coordinator hosts one more in its own process.

    Example::

        engine = ShardEngine(init)
        kind, payload = engine.handle(("rss",))
    """

    def __init__(self, init: ShardInit) -> None:
        """Decode (or restore) the shard's network, objects and monitor."""
        self._shard_id = init.shard_id
        self._halo_nodes = init.halo_nodes
        self._network, self._edge_table, self._monitor, results, escalated = (
            _build_state(init)
        )
        #: ``(initial_results, escalated_ids)`` of the freshly built shard.
        self.initial: Tuple[Dict[int, KnnResult], List[int]] = (results, escalated)

    def handle(self, message: tuple) -> tuple:
        """Serve one ``tick`` / ``expand`` / ``snapshot`` / ``rss`` message.

        Returns the reply the module docstring names for *message*; an
        unknown kind raises :class:`~repro.exceptions.MonitoringError`.
        """
        kind = message[0]
        if kind == "tick":
            return ("report", self._tick(message[1], message[2]))
        if kind == "expand":
            return (
                "expanded",
                _serve_expansions(
                    self._network, self._edge_table, self._halo_nodes, message[1]
                ),
            )
        if kind == "snapshot":
            # Pickled between ticks: the monitor's per-batch snapshot field
            # (_batch_csr) is None outside _process, and the CSR snapshot
            # cache is module-level and weak, so the blob carries exactly
            # the replica + algorithm state a restored shard resumes from.
            return ("snapshot", pickle.dumps(self._monitor, protocol=pickle.HIGHEST_PROTOCOL))
        if kind == "rss":
            return ("rss", _peak_rss_bytes())
        raise MonitoringError(f"shard {self._shard_id}: unknown message {kind!r}")

    def _tick(self, shared_record: bytes, query_record: bytes) -> tuple:
        """Apply one tick's records and run the monitor; the report payload.

        The payload is ``(timestamp, elapsed_seconds, cpu_seconds,
        changed_query_ids, counters, changed_results, escalated_ids)``;
        ``cpu_seconds`` is the process CPU time the tick took, the
        contention-free signal throughput studies use.
        """
        network, edge_table, monitor = self._network, self._edge_table, self._monitor
        batch = local_batch(
            network,
            decode_batch(shared_record),
            decode_batch(query_record).query_updates,
        )
        cpu_start = time.process_time()
        apply_batch(network, edge_table, batch)
        report = monitor.process_batch(batch)
        changed = set(report.changed_queries)
        escalated: List[int] = []
        if self._halo_nodes:
            # Edge-weight changes move halo distances silently, so every
            # registered query must be re-probed; otherwise only queries
            # whose answer or position changed can newly spill over the
            # boundary.
            if batch.edge_updates:
                probe_ids = set(monitor.query_ids())
            else:
                probe_ids = set(changed)
                for update in batch.query_updates:
                    if not update.is_termination:
                        probe_ids.add(update.query_id)
            escalated = _probe_escalations(
                monitor, network, edge_table, self._halo_nodes, probe_ids
            )
            for query_id in escalated:
                monitor.unregister_query(query_id)
                changed.discard(query_id)
        results = {
            query_id: _plain_result(monitor.result_of(query_id)) for query_id in changed
        }
        return (
            report.timestamp,
            report.elapsed_seconds,
            time.process_time() - cpu_start,
            changed,
            dict(report.counters),
            results,
            escalated,
        )


def run_shard_worker(conn, init: ShardInit) -> None:
    """Worker process entry point: build a :class:`ShardEngine`, then serve.

    Sends ``("ready", engine.initial)`` once construction succeeds, then
    answers every message with ``engine.handle(message)`` until
    ``("stop",)``.  Any exception is reported as ``("error",
    traceback_text)`` and ends the worker, and so does the death of the
    coordinator, however it died.
    """
    try:
        engine = ShardEngine(init)
        conn.send(("ready", engine.initial))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    # A SIGKILLed coordinator does not show up as EOF on conn: under fork,
    # every sibling started later holds a copy of the coordinator's end of
    # this worker's pipe.  So the parent-process sentinel is waited on
    # beside it.  Later siblings hold copies of that too, but the worker
    # started last has none: it sees the death at once, and every exit
    # releases the worker started before.
    parent = multiprocessing.parent_process()
    watched = [conn] if parent is None else [conn, parent.sentinel]
    try:
        while True:
            try:
                if wait(watched) != [conn]:
                    break  # the coordinator is gone; nothing left to report to
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            try:
                reply = engine.handle(message)
            except Exception:
                conn.send(("error", traceback.format_exc()))
                break
            conn.send(reply)
    finally:
        conn.close()
