"""Sharded query execution: one monitoring server, N shards.

:class:`ShardedMonitoringServer` keeps the exact public API of
:class:`~repro.core.server.MonitoringServer` — ingestion, ``tick()``,
``result_of()`` — but splits the monitoring work into shards, each a
:class:`~repro.core.worker.ShardEngine`, so the per-tick work runs on
several cores instead of one.  The coordinator stays the single writer of
the network and the edge table and holds one **shard** of a layout
itself; every other shard runs in a worker process of its own:

* **Processes.**  An N-shard fleet runs N−1 worker processes.  The last
  shard's engine lives in the coordinator behind an in-process connection
  that answers each message as it is sent; the coordinator sends every
  worker its message first, so that shard computes while the workers do.
  It is built after the workers have started, so no forked worker
  inherits its state.  ``recv_timeout`` bounds the wait on workers only,
  and :meth:`ShardedMonitoringServer.worker_peak_rss` reports the worker
  processes alone.
* **Network and halo.**  ``partitioning="replica"`` (the default) is the
  whole-network layout: every shard holds the full network, encoded once
  per spawn as a columnar network record, and its halo is empty.
  ``partitioning="graph"`` splits the network into contiguous region
  blocks (a BFS grower over the CSR adjacency,
  :func:`~repro.network.csr.grow_partitions`); each shard holds one block
  plus its one-hop halo, extracted in full-network order so its
  heap tie-breaks match the single-process server's.
* **Owner rule.**  Whole-network shards split the queries by
  :func:`~repro.core.worker.shard_of`; a region shard owns the queries on
  edges whose start node lies in its block.  With more than one block an
  aggregate query belongs to the coordinator, since its points may lie in
  any block.
* **Tick.**  ``tick()`` applies the net batch to the coordinator's state,
  encodes its object and edge updates **once** as an ``RPUB`` batch record
  (:func:`~repro.core.events.encode_batch`) and sends every shard that
  record plus a record of the query updates it owns.  Each shard keeps
  the updates landing on its own edges, runs its monitor and replies with
  its changed results, which merge into the cache serving ``result_of()``.
* **Boundary queries.**  A shard with a non-empty halo *escalates* a query
  whose search reaches a halo node; the coordinator takes it over and
  evaluates it with exact distributed expansions: it asks the owning
  shard for a fresh expansion, collects the settled halo nodes as
  ``(node, distance)`` *frontier continuations*, and forwards each
  improving continuation to the shard owning that node as a seeded resume
  request (:func:`~repro.core.search.expand_knn` with ``seed_nodes``),
  until the global bound closes.  Every partial expansion performs the
  float operations a fresh single-process expansion would.  An empty halo
  means every local answer is exact, so a one-block layout escalates
  nothing.
* **Fixed topology.**  Like every server, it freezes its network's
  topology, so the fleet is laid out once, at spawn.

Example::

    from repro import MonitoringServer, city_network

    network = city_network(400, seed=7)
    with MonitoringServer(network, algorithm="ima", workers=4) as server:
        server.add_objects_at([(i, 50.0 * i, 80.0) for i in range(32)])
        server.add_query_at(1_000_000, x=100.0, y=100.0, k=4)
        report = server.tick()
        print(server.result_of(1_000_000).neighbors)
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import weakref
from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.base import MonitorBase, TimestepReport
from repro.core.events import QueryUpdate, UpdateBatch, apply_batch, encode_batch
from repro.core.queries import QuerySpec, merge_aggregate
from repro.core.results import KnnResult
from repro.core.server import ALGORITHMS, MonitoringServer
from repro.core.worker import ShardEngine, ShardInit, run_shard_worker, shard_of
from repro.exceptions import (
    MonitoringError,
    RecoveryError,
    ServerFailedError,
    UnknownQueryError,
)
from repro.network.csr import csr_snapshot, grow_partitions, partition_block
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.record import encode_network

#: The two supported partitioning modes of :class:`ShardedMonitoringServer`.
PARTITIONING_MODES = ("replica", "graph")


def default_start_method() -> str:
    """The preferred multiprocessing start method on this platform.

    ``fork`` where available (fast spawn, cheap state shipping), ``spawn``
    otherwise; both are supported — every shipped object pickles cleanly.

    Example::

        ShardedMonitoringServer(network, workers=4,
                                start_method=default_start_method())
    """
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class _InProcessConnection:
    """The coordinator's own shard behind the pipe surface ``_exchange`` uses.

    :meth:`send` runs the :class:`~repro.core.worker.ShardEngine` at once
    and keeps the reply for :meth:`recv`; an exception becomes an
    ``("error", traceback)`` reply and closes the connection, as it ends a
    worker process.  A reply is always ready, so :meth:`poll` never waits.
    """

    def __init__(self, init: ShardInit) -> None:
        """Build the engine; its ``ready`` (or ``error``) reply awaits recv."""
        self._engine: Optional[ShardEngine] = None
        self._reply: Optional[tuple] = None
        try:
            self._engine = ShardEngine(init)
            self._reply = ("ready", self._engine.initial)
        except Exception:
            self._reply = ("error", traceback.format_exc())

    def send(self, message: tuple) -> None:
        """Serve *message* now; ``("stop",)`` closes the connection."""
        if self._engine is None:
            raise OSError("the in-process shard is closed")
        if message[0] == "stop":
            self.close()
            return
        try:
            self._reply = self._engine.handle(message)
        except Exception:
            self.close()
            self._reply = ("error", traceback.format_exc())

    def poll(self, timeout: Optional[float] = None) -> bool:
        """True: the reply to the last message is computed by :meth:`send`."""
        return True

    def recv(self) -> tuple:
        """The reply to the last message (EOFError when there is none)."""
        reply, self._reply = self._reply, None
        if reply is None:
            raise EOFError("the in-process shard has no reply pending")
        return reply

    def close(self) -> None:
        """Drop the engine and its state."""
        self._engine = None


@dataclass
class _Shard:
    """Coordinator-side handle of one shard.

    ``process`` is ``None`` for the shard the coordinator hosts itself,
    whose ``conn`` is an :class:`_InProcessConnection`.
    """

    shard_id: int
    process: Optional[multiprocessing.Process]
    conn: object  # a Connection, or an _InProcessConnection

    def __str__(self) -> str:
        where = "in-process" if self.process is None else f"pid {self.process.pid}"
        return f"shard {self.shard_id} ({where})"


def _cleanup(shards: List[_Shard]) -> None:
    """Best-effort teardown used by close() and the GC finalizer."""
    for shard in shards:
        try:
            shard.conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
            pass
    for shard in shards:
        if shard.process is not None:
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():  # pragma: no cover - stuck worker
                shard.process.terminate()
                shard.process.join(timeout=1.0)
        try:
            shard.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _extract_subnetwork(
    network: RoadNetwork,
    members: Set[int],
    edge_ids: Set[int],
) -> RoadNetwork:
    """Build the subnetwork induced by *members* nodes and *edge_ids* edges.

    Nodes and edges are inserted in the **full network's iteration order**,
    so the subnetwork's dense CSR renumbering is a filtered subsequence of
    the full network's.  Relative node order decides heap tie-breaks in the
    settle loop (ties pop by dense index), so preserving it makes a
    contained search settle in exactly the same order — and produce exactly
    the same floats — as the single-process server.
    """
    columns = network.columns
    node_ids = columns.node_ids
    nodes = [index for index, node_id in enumerate(node_ids) if node_id in members]
    edges = [
        position for position, edge_id in enumerate(columns.edge_ids) if edge_id in edge_ids
    ]
    sub = RoadNetwork.from_columns(
        [node_ids[index] for index in nodes],
        [columns.node_x[index] for index in nodes],
        [columns.node_y[index] for index in nodes],
        [columns.edge_ids[position] for position in edges],
        [node_ids[columns.edge_start[position]] for position in edges],
        [node_ids[columns.edge_end[position]] for position in edges],
        [columns.edge_base_weight[position] for position in edges],
        [columns.edge_oneway[position] for position in edges],
    )
    sub.restore_weights([columns.edge_weight[position] for position in edges], 0)
    return sub


class ShardedMonitoringServer(MonitoringServer):
    """A :class:`MonitoringServer` that executes queries on N shards.

    Construct it directly, or — equivalently — via
    ``MonitoringServer(network, workers=N)`` with ``N > 1``.  The whole
    ingestion surface (``add_object`` … ``apply_updates``) is inherited
    unchanged; only execution is different: ``tick()`` fans the timestamp
    out to the shards and merges their reports, and ``result_of()`` serves
    from the merged result cache.  The coordinator hosts the last shard
    itself and starts one worker process per other shard.  Call
    :meth:`close` (or use the server as a context manager) to stop the
    workers.

    Example::

        server = ShardedMonitoringServer(network, algorithm="gma", workers=2)
        try:
            server.add_object_at(1, x=120.0, y=80.0)
            server.add_query_at(100, x=100.0, y=100.0, k=2)
            server.tick()
            print(server.result_of(100).neighbors)
        finally:
            server.close()
    """

    def __init__(
        self,
        network: RoadNetwork,
        algorithm: Union[str, MonitorBase] = "ima",
        edge_table: Optional[EdgeTable] = None,
        *,
        workers: int = 2,
        partitioning: str = "replica",
        start_method: Optional[str] = None,
        recv_timeout: Optional[float] = 120.0,
    ) -> None:
        """Create the sharded server: its own shard and N−1 worker processes.

        Args:
            network: the road network (the parent stays its single writer
                of weights; its topology is frozen here, as for any server).
            algorithm: ``"ovh"``, ``"ima"`` or ``"gma"``; monitor *instances*
                are rejected because monitors live in the shards.
            edge_table: optionally a pre-populated edge table; its objects
                are shipped to every shard as the initial placements.
            workers: number of shards (>= 1); the coordinator hosts one and
                starts a worker process for each of the others.
            partitioning: ``"replica"`` (default) hash-partitions queries
                over full network replicas; ``"graph"`` partitions the
                *network* into region blocks with a one-hop halo, owns each
                query by the shard containing its edge, and evaluates
                boundary-crossing queries through the coordinator's
                cross-shard expansion protocol.  Graph mode may spawn fewer
                shards than *workers* when the network has fewer nodes.
            start_method: multiprocessing start method; defaults to
                :func:`default_start_method`.
            recv_timeout: seconds to wait for any single worker-process
                reply before declaring the shard stuck and failing the
                server with a :class:`MonitoringError` (the 5s join cap in
                teardown has the same role).  The coordinator's own shard
                replies as it is sent a message, so no deadline applies to
                it.  ``None`` disables the deadline and restores the old
                block-forever behaviour.
        """
        if workers < 1:
            raise MonitoringError(f"workers must be >= 1, got {workers}")
        if partitioning not in PARTITIONING_MODES:
            raise MonitoringError(
                f"partitioning must be one of {PARTITIONING_MODES}, "
                f"got {partitioning!r}"
            )
        if recv_timeout is not None and recv_timeout <= 0:
            raise MonitoringError(f"recv_timeout must be positive, got {recv_timeout}")
        self._num_workers = workers
        self._num_shards = workers
        self._partitioning = partitioning
        self._start_method = start_method or default_start_method()
        self._recv_timeout = recv_timeout
        self._closed = False
        self._failed: Optional[str] = None
        self._shards: List[_Shard] = []
        self._merged_results: Dict[int, KnnResult] = {}
        self._finalizer: Optional[weakref.finalize] = None
        # The layout: node -> block (empty for the whole-network layout) and
        # query -> owning shard (None = coordinator-owned boundary query).
        self._assignment: Dict[int, int] = {}
        self._query_owner: Dict[int, Optional[int]] = {}
        self._boundary_queries: Set[int] = set()
        self._divergent_queries: Set[int] = set()
        self._boundary_refresh_needed = False
        self._last_max_shard_seconds = 0.0
        self._last_max_shard_cpu_seconds = 0.0
        super().__init__(network, algorithm, edge_table)
        self._spawn_workers(initial_queries={})

    def _make_monitor(self, algorithm: Union[str, MonitorBase]) -> Optional[MonitorBase]:
        """Validate and record the shards' algorithm; no server-wide monitor."""
        if isinstance(algorithm, MonitorBase):
            raise MonitoringError(
                "a sharded server needs an algorithm *name* (its monitors "
                "live in its shards); got a monitor instance"
            )
        self._algorithm_key = self._resolve_algorithm_key(algorithm)
        return None

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Number of shards requested; the fleet runs ``shards - 1`` worker processes."""
        return self._num_workers

    @property
    def partitioning(self) -> str:
        """The partitioning mode: ``"replica"`` or ``"graph"``."""
        return self._partitioning

    @property
    def shards(self) -> int:
        """Actual shard count: ``workers`` in replica mode; in graph mode
        possibly fewer (never more region blocks than network nodes)."""
        return self._num_shards

    def partition_assignment(self) -> Dict[int, int]:
        """node id -> owning shard index (empty in replica mode).

        Exposed for tests that pin queries near partition cuts and for
        operational introspection of the block layout.

        Example::

            cuts = {n for n in server.partition_assignment()
                    if any(server.partition_assignment().get(m) !=
                           server.partition_assignment()[n]
                           for m in neighbors(n))}
        """
        return dict(self._assignment)

    def boundary_query_ids(self) -> FrozenSet[int]:
        """Ids of queries currently evaluated by the coordinator's
        cross-shard protocol (always empty when the halos are: replica
        mode, or a single graph block).

        A query becomes *boundary* when its owning shard escalates it (its
        expansion reached a halo node), when it moves across a partition
        cut, or — with more than one block — when it is an aggregate query
        (its aggregation points may live on other shards).  It stays
        boundary until it terminates.
        """
        return frozenset(self._boundary_queries)

    def divergent_query_ids(self) -> FrozenSet[int]:
        """Ids of queries that were *ever* boundary-evaluated (sticky).

        Boundary evaluation recomputes a query's answer with fresh
        expansions; for IMA the incrementally maintained single-process
        answer can differ from a fresh one in the last float ULP, so strict
        byte-identity comparisons against a single-process run must carve
        these out (the differential harness still holds them to the oracle
        tolerance).  Unlike :meth:`boundary_query_ids` this set keeps a
        query after it terminates — once fresh-evaluated, always
        potentially divergent.
        """
        return frozenset(self._divergent_queries)

    @property
    def algorithm_name(self) -> str:
        """Short name of the algorithm the shards run ("OVH"/"IMA"/"GMA")."""
        return ALGORITHMS[self._algorithm_key].name

    @property
    def monitor(self) -> MonitorBase:
        """Unavailable on a sharded server — monitors live in the shards.

        Raises AttributeError (not MonitoringError) so ``hasattr`` /
        ``getattr(..., default)`` probes behave normally.
        """
        raise AttributeError(
            "a sharded server has no in-process monitor; use result_of()/"
            "results(), which merge the shards' answers"
        )

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_workers(
        self,
        initial_queries: Dict[int, tuple],
        monitor_blobs: Optional[List[bytes]] = None,
    ) -> None:
        """Ship the state, start the worker processes, build the own shard."""
        try:
            self._spawn_workers_inner(initial_queries, monitor_blobs)
        except BaseException:
            shards, self._shards = self._shards, []
            _cleanup(shards)
            raise

    def _spawn_workers_inner(
        self,
        initial_queries: Dict[int, tuple],
        monitor_blobs: Optional[List[bytes]] = None,
    ) -> None:
        """The actual spawn sequence (:meth:`_spawn_workers` adds cleanup).

        Every shard but the last gets a worker process; the last one's
        engine is built here, after every worker has started, so no forked
        worker inherits its state.  With *monitor_blobs* (one pickled
        monitor per shard, from :meth:`snapshot_state`), each shard resumes
        from its blob instead of building fresh state — preserving the
        monitors' exact float history, which is what makes restored results
        byte-identical.  Each ``ready`` reply names the queries the shard
        registered, which is how the coordinator learns who owns them; the
        ones it escalated at registration are queued for re-evaluation on
        the next tick.
        """
        context = multiprocessing.get_context(self._start_method)
        self._shards = []
        # One-slot lists the workers empty (run_shard_worker): a forked
        # worker inherits this frame, which must not hold its init otherwise.
        slots = [[init] for init in self._shard_inits(initial_queries, monitor_blobs)]
        own_init = slots.pop().pop()
        for slot in slots:
            shard_id = slot[0].shard_id
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=run_shard_worker,
                args=(child_conn, slot),
                name=f"repro-shard-{shard_id}",
                daemon=True,
            )
            process.start()
            # The worker has its own copy now (forked, or pickled by start()).
            slot.clear()
            child_conn.close()
            self._shards.append(_Shard(shard_id, process, parent_conn))
        self._shards.append(
            _Shard(own_init.shard_id, None, _InProcessConnection(own_init))
        )
        for shard, (results, escalated) in zip(self._shards, self._exchange("ready")):
            self._merged_results.update(results)
            self._query_owner.update(dict.fromkeys(results, shard.shard_id))
            for query_id in escalated:
                self._take_over(query_id)
                self._boundary_refresh_needed = True
        self._finalizer = weakref.finalize(self, _cleanup, self._shards)

    def _shard_inits(
        self,
        initial_queries: Dict[int, tuple],
        monitor_blobs: Optional[List[bytes]],
    ) -> List[ShardInit]:
        """Lay the current network out into shards: one init per shard.

        The whole-network layout encodes the network once for all
        ``workers`` shards, each with an empty halo.  The graph layout
        recomputes the BFS-grown block assignment (deterministic, so a
        restored fleet lands on the same layout) and encodes
        each block+halo subnetwork.  A network travels as one
        :mod:`repro.network.record` plus its current weight column.  Every
        shard is sent every object placement and keeps the ones on its own
        edges; *initial_queries* go to their owner, or to the coordinator's
        boundary set.
        """
        if self._partitioning == "graph":
            full_csr = csr_snapshot(self._network)
            self._assignment = grow_partitions(full_csr, self._num_workers)
            self._num_shards = max(self._assignment.values(), default=0) + 1
            blocks = [
                partition_block(full_csr, self._assignment, part)
                for part in range(self._num_shards)
            ]
            halos = [frozenset(halo) for _, halo, _ in blocks]
        else:
            self._num_shards = self._num_workers
            halos = [frozenset()] * self._num_shards
        if monitor_blobs is not None:
            # A restored monitor embeds its own network and objects.
            if len(monitor_blobs) != self._num_shards:
                raise RecoveryError(
                    f"sharded snapshot holds {len(monitor_blobs)} shard blobs "
                    f"but the {self._partitioning} layout has {self._num_shards} shards"
                )
            shipped: List[Tuple[Optional[bytes], Optional[array]]] = [
                (None, None)
            ] * self._num_shards
            objects: Dict[int, NetworkLocation] = {}
        else:
            if self._partitioning == "graph":
                networks = [
                    _extract_subnetwork(self._network, set(block) | set(halo), set(edges))
                    for block, halo, edges in blocks
                ]
            else:
                networks = [self._network]
            shipped = [
                (encode_network(network), network.weight_column()) for network in networks
            ]
            if self._partitioning != "graph":
                shipped *= self._num_shards
            objects = dict(self._edge_table.all_objects())
        per_shard_queries: List[Dict[int, tuple]] = [{} for _ in range(self._num_shards)]
        for query_id, (location, spec) in initial_queries.items():
            owner = self._owner_of(query_id, location, spec)
            if owner is None:
                self._take_over(query_id)
                self._boundary_refresh_needed = True
            else:
                per_shard_queries[owner][query_id] = (location, spec)
        return [
            ShardInit(
                shard_id=part,
                algorithm=self._algorithm_key,
                network_blob=shipped[part][0],
                weights=shipped[part][1],
                objects=objects,
                queries=per_shard_queries[part],
                monitor_blob=monitor_blobs[part] if monitor_blobs is not None else None,
                halo_nodes=halos[part],
            )
            for part in range(self._num_shards)
        ]

    def _owner_of(self, query_id: int, location: NetworkLocation, spec) -> Optional[int]:
        """The layout's owner rule: the shard evaluating a query, or None.

        ``None`` means the coordinator evaluates it: an aggregate query in a
        layout of more than one block, whose points may lie in any block.
        """
        if not self._assignment:
            return shard_of(query_id, self._num_shards)
        if (
            self._num_shards > 1
            and isinstance(spec, QuerySpec)
            and spec.kind == "aggregate_knn"
        ):
            return None
        return self._owner_of_location(location)

    def _owner_of_location(self, location: NetworkLocation) -> int:
        """Block holding *location*: the one holding its edge's start.

        Both endpoints of a cut-straddling edge have the edge locally, so
        picking the start node's block is an arbitrary-but-deterministic
        choice among shards that can all answer exactly.
        """
        return self._assignment[self._network.endpoints_of(location.edge_id)[0]]

    def _take_over(self, query_id: int) -> None:
        """Make *query_id* a coordinator-evaluated boundary query."""
        self._query_owner[query_id] = None
        self._boundary_queries.add(query_id)
        self._divergent_queries.add(query_id)

    def _exchange(
        self,
        reply: str,
        messages: Optional[List[tuple]] = None,
        shards: Optional[List[_Shard]] = None,
    ) -> list:
        """Send each shard its message, then read one *reply* from each.

        ``messages[i]`` goes to ``shards[i]`` (every shard by default); with
        no *messages* nothing is sent, which is how the spawn sequence waits
        for the ``ready`` greetings.  The in-process shard is the last one,
        so every worker already has its message while it computes.  Returns
        the reply payloads in shard order.  A dead worker, a shard error, a
        reply of another kind, or no worker reply within the
        ``recv_timeout`` constructor argument raises
        :class:`MonitoringError` — ``conn.recv()`` has no deadline of its
        own, so a stuck worker would otherwise freeze the coordinator.
        """
        shards = self._shards if shards is None else shards
        for shard, message in zip(shards, messages or ()):
            try:
                shard.conn.send(message)
            except (OSError, ValueError) as exc:
                raise MonitoringError(
                    f"{shard} is gone; cannot send it {message[0]!r}"
                ) from exc
        payloads = []
        for shard in shards:
            try:
                if self._recv_timeout is not None and not shard.conn.poll(
                    self._recv_timeout
                ):
                    raise MonitoringError(
                        f"{shard} did not reply within {self._recv_timeout}s; "
                        f"treating the worker as stuck"
                    )
                kind, payload = shard.conn.recv()
            except (EOFError, OSError) as exc:
                raise MonitoringError(f"{shard} died without replying") from exc
            if kind == "error":
                raise MonitoringError(f"{shard} failed:\n{payload}")
            if kind != reply:  # pragma: no cover - protocol violation
                raise MonitoringError(
                    f"{shard} sent {kind!r} instead of {reply!r}"
                )
            payloads.append(payload)
        return payloads

    def _ensure_open(self) -> None:
        """Raise when the server was closed — with the failure cause if any.

        A deliberate :meth:`close` keeps the generic message; a fail-closed
        shutdown (a shard died or desynced mid-tick) raises the typed
        :class:`~repro.exceptions.ServerFailedError` carrying what went
        wrong, so callers can tell "I closed it" from "it broke".
        """
        if self._failed is not None:
            raise ServerFailedError(self._failed)
        if self._closed:
            raise MonitoringError("this sharded server is closed")

    def _fail(self, exc: BaseException) -> None:
        """Mark the server failed and tear the fleet down (fail-closed).

        Called when a tick (or snapshot) cannot complete: some shards may
        have applied the batch while others did not, and unread replies may
        sit in the pipes — the fleet is no longer in lock-step, so every
        connection is closed, the workers are stopped, and any further use
        raises :class:`~repro.exceptions.ServerFailedError`.
        """
        if self._failed is None and not self._closed:
            self._failed = f"{type(exc).__name__}: {exc}"
        self.close()

    def _ensure_accepting_updates(self) -> None:
        """Fail ingestion fast once closed — buffered updates could never run."""
        self._ensure_open()

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def take_pending_batch(self) -> UpdateBatch:
        """Detach the pending buffer as the next tick's batch (see base class).

        Refuses on a closed or failed server, where the batch could never be
        applied.
        """
        self._ensure_open()
        return super().take_pending_batch()

    def apply_taken_batch(self, batch: UpdateBatch) -> TimestepReport:
        """Process a previously taken batch across all shards.

        The parent applies the normalized batch to its authoritative state,
        sends each shard the object/edge updates plus the query updates it
        owns, and merges the replies into one :class:`TimestepReport` whose
        ``changed_queries`` / ``counters`` aggregate over shards.

        A shard failure mid-tick (worker exception, dead process, stuck or
        dropped reply, protocol violation) raises and **fails the server
        closed**: by then some shards may have applied the batch while
        others did not, and unread replies may sit in the pipes — a later
        tick would read a stale report and silently desync — so every
        connection is drained by closing it, the workers are stopped, and
        any further use raises the typed
        :class:`~repro.exceptions.ServerFailedError`.
        """
        self._ensure_open()
        try:
            return self._apply_taken_inner(batch)
        except BaseException as exc:
            self._fail(exc)
            raise

    def tick(self) -> TimestepReport:
        """Process every buffered update as one timestamp, across all shards.

        Equivalent to :meth:`take_pending_batch` + :meth:`apply_taken_batch`;
        see the latter for the fan-out/merge mechanics and the fail-closed
        behaviour on shard failure.
        """
        return self.apply_taken_batch(self.take_pending_batch())

    def _apply_taken_inner(self, batch: UpdateBatch) -> TimestepReport:
        """The actual tick sequence (:meth:`apply_taken_batch` fail-closes)."""
        start = time.perf_counter()
        # Routing, take-overs and the boundary re-evaluation read the query
        # maps as this batch leaves them.
        self._commit_pending_queries()
        normalized = batch.net()
        apply_batch(self._network, self._edge_table, normalized)
        timestamp = normalized.timestamp
        # One record of the object and edge updates for the whole fleet;
        # each shard keeps the updates that land on its own edges.
        shared = encode_batch(
            UpdateBatch(
                timestamp,
                normalized.object_updates,
                edge_updates=normalized.edge_updates,
            )._mark_net()
        )
        messages = [
            ("tick", shared, encode_batch(UpdateBatch(timestamp, query_updates=owned)._mark_net()))
            for owned in self._route_query_updates(normalized.query_updates)
        ]

        changed: set = set()
        counters: Dict[str, int] = {}
        max_shard_seconds = 0.0
        max_shard_cpu_seconds = 0.0
        escalated_now: List[int] = []
        for shard, payload in zip(self._shards, self._exchange("report", messages)):
            (
                shard_timestamp,
                elapsed,
                cpu_seconds,
                shard_changed,
                shard_counters,
                results,
                escalated,
            ) = payload
            if shard_timestamp != timestamp:  # pragma: no cover - protocol bug
                raise MonitoringError(
                    f"{shard} reported timestamp {shard_timestamp}, "
                    f"expected {timestamp}"
                )
            changed.update(shard_changed)
            if elapsed > max_shard_seconds:
                max_shard_seconds = elapsed
            if cpu_seconds > max_shard_cpu_seconds:
                max_shard_cpu_seconds = cpu_seconds
            for key, value in shard_counters.items():
                counters[key] = counters.get(key, 0) + value
            self._merged_results.update(results)
            escalated_now.extend(escalated)
        for query_id in escalated_now:
            if query_id in self._query_specs:
                self._take_over(query_id)
        for update in normalized.query_updates:
            if update.is_termination:
                self._merged_results.pop(update.query_id, None)

        if self._boundary_queries and (
            not normalized.is_empty() or self._boundary_refresh_needed
        ):
            changed.update(self._evaluate_boundary_queries())
        self._boundary_refresh_needed = False

        self._last_max_shard_seconds = max_shard_seconds
        self._last_max_shard_cpu_seconds = max_shard_cpu_seconds
        return TimestepReport(
            timestamp=timestamp,
            elapsed_seconds=time.perf_counter() - start,
            changed_queries=changed,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # query routing and the cross-shard expansion protocol
    # ------------------------------------------------------------------
    def _route_query_updates(self, query_updates: List[QueryUpdate]) -> List[list]:
        """Split the tick's query updates by owning shard.

        A termination goes to the query's owner.  An installation goes to
        the owner the layout's rule names, or makes the query a boundary
        query.  A moving query stays with its owner; one whose owner
        changes — it crossed a partition cut, or turned into an aggregate
        in a layout of several blocks — is terminated there and taken over
        by the coordinator.
        """
        per_shard: List[list] = [[] for _ in range(self._num_shards)]
        for update in query_updates:
            query_id = update.query_id
            if update.is_termination:
                self._boundary_queries.discard(query_id)
                owner = self._query_owner.pop(query_id, None)
                if owner is not None:
                    per_shard[owner].append(update)
                continue
            spec = self._query_specs.get(query_id) or update.spec
            owner = self._owner_of(query_id, update.new_location, spec)
            if update.is_installation:
                if owner is None:
                    self._take_over(query_id)
                else:
                    self._query_owner[query_id] = owner
                    per_shard[owner].append(update)
                continue
            old_owner = self._query_owner.get(query_id)
            if old_owner is None or query_id in self._boundary_queries:
                continue  # coordinator-owned: re-evaluated this tick
            if owner == old_owner:
                per_shard[owner].append(update)
                continue
            per_shard[old_owner].append(QueryUpdate(query_id, update.old_location, None))
            self._take_over(query_id)
        return per_shard

    def _evaluate_boundary_queries(self) -> Set[int]:
        """Re-evaluate every live boundary query; return the changed ids.

        Runs once per non-empty tick (and after a spawn that escalated
        queries): boundary answers depend on state anywhere in the network,
        so any applied update may move them.  The changed flag mirrors the
        single-process semantics — a query counts as changed when its
        neighbor list (ids *and* distances) differs from the cached one, or
        when it has no cached result yet (fresh installation).
        """
        changed: Set[int] = set()
        for query_id in sorted(self._boundary_queries):
            location = self._query_locations.get(query_id)
            spec = self._query_specs.get(query_id)
            if location is None or spec is None:
                continue
            result = self._evaluate_boundary_query(query_id, location, spec)
            old = self._merged_results.get(query_id)
            self._merged_results[query_id] = result
            if old is None or old.neighbors != result.neighbors:
                changed.add(query_id)
        return changed

    def _evaluate_boundary_query(
        self, query_id: int, location: NetworkLocation, spec: QuerySpec
    ) -> KnnResult:
        """Exact coordinator-side evaluation of one boundary query."""
        if spec.kind == "aggregate_knn":
            object_count = self._edge_table.object_count
            if object_count == 0:
                return KnnResult(
                    query_id=query_id, k=spec.result_k, neighbors=(),
                    radius=float("inf"),
                )
            per_point = [
                self._distributed_expand(point, object_count)[0]
                for point in spec.aggregation_points(location)
            ]
            neighbors, radius = merge_aggregate(per_point, spec)
            return KnnResult(
                query_id=query_id, k=spec.result_k,
                neighbors=tuple(neighbors), radius=radius,
            )
        if spec.kind == "range":
            neighbors, radius = self._distributed_expand(
                location, 1, fixed_radius=spec.radius
            )
        else:
            neighbors, radius = self._distributed_expand(location, spec.k)
        return KnnResult(
            query_id=query_id, k=spec.result_k,
            neighbors=tuple(neighbors), radius=radius,
        )

    def _distributed_expand(
        self,
        location: NetworkLocation,
        k: int,
        fixed_radius: Optional[float] = None,
    ) -> Tuple[List[tuple], float]:
        """One exact network expansion through the cross-shard protocol.

        Round 0 asks the shard owning *location* for a fresh expansion;
        every settled halo node comes back as a ``(node, distance)``
        frontier continuation.  Each round the continuations that are
        within the current bound *and* improve on the best distance already
        dispatched for that node are forwarded to the shard owning the
        node as ``seed_nodes`` resume requests (carrying the current top-k
        as upper-bound candidates to tighten the remote search).  The loop
        terminates because a node is only re-dispatched at a strictly
        smaller distance and path sums form a finite set.

        Returns ``(neighbors, radius)`` with exactly the float values a
        fresh single-process :func:`~repro.core.search.expand_knn` would
        produce: each partial expansion relaxes the same edges in the same
        order as the corresponding stretch of the full-graph search.
        """
        owner = self._owner_of_location(location)
        cand: Dict[int, float] = {}
        best_dispatched: Dict[int, float] = {}
        pending: Dict[int, list] = {
            owner: [(k, location, None, (), fixed_radius)]
        }
        while pending:
            parts = sorted(pending)
            round_hits: List[Tuple[int, float]] = []
            for payload in self._exchange(
                "expanded",
                [("expand", pending[part]) for part in parts],
                [self._shards[part] for part in parts],
            ):
                for neighbors, halo_hits in payload:
                    for object_id, distance in neighbors:
                        previous = cand.get(object_id)
                        if previous is None or distance < previous:
                            cand[object_id] = distance
                    round_hits.extend(halo_hits)
            if fixed_radius is not None:
                bound = fixed_radius
                candidates: tuple = ()
            else:
                top = sorted(
                    (distance, object_id) for object_id, distance in cand.items()
                )[:k]
                bound = top[k - 1][0] if len(top) >= k else float("inf")
                candidates = tuple(
                    (object_id, distance) for distance, object_id in top
                )
            seeds_by_shard: Dict[int, List[Tuple[int, float]]] = {}
            for node_id, distance in sorted(round_hits):
                if distance > bound:
                    # Strictly beyond the bound: nothing past this node can
                    # enter the answer (ties at the bound are still
                    # forwarded — an object at exactly the k-th distance
                    # may win the id tie-break).
                    continue
                previous = best_dispatched.get(node_id)
                if previous is not None and distance >= previous:
                    continue
                best_dispatched[node_id] = distance
                seeds_by_shard.setdefault(self._assignment[node_id], []).append(
                    (node_id, distance)
                )
            pending = {
                part: [(k, None, seeds, candidates, fixed_radius)]
                for part, seeds in seeds_by_shard.items()
            }
        if fixed_radius is not None:
            pairs = sorted(
                (distance, object_id)
                for object_id, distance in cand.items()
                if distance <= fixed_radius
            )
            return [
                (object_id, distance) for distance, object_id in pairs
            ], float(fixed_radius)
        pairs = sorted((distance, object_id) for object_id, distance in cand.items())[:k]
        radius = pairs[k - 1][0] if len(pairs) >= k else float("inf")
        return [(object_id, distance) for distance, object_id in pairs], radius

    def worker_peak_rss(self) -> List[int]:
        """Peak resident set size, in bytes, of every worker process.

        One entry per worker process, in shard order: the shard the
        coordinator hosts is not counted (its memory is the coordinator's
        own), so an N-shard fleet reports N−1 figures.  The memory-model
        evidence for graph partitioning: a block+halo worker should peak
        well below a full-replica worker on large networks.  Asks each
        live worker over its pipe (a shard failure fails the server
        closed, like a tick).

        Example::

            rss = server.worker_peak_rss()
            print(max(rss) / 2**20, "MiB")
        """
        self._ensure_open()
        try:
            children = [shard for shard in self._shards if shard.process is not None]
            return [
                int(size)
                for size in self._exchange("rss", [("rss",)] * len(children), children)
            ]
        except BaseException as exc:
            self._fail(exc)
            raise

    @property
    def last_max_shard_seconds(self) -> float:
        """Slowest shard's wall-clock processing time in the last tick.

        The sharded tick's critical path: ``elapsed_seconds`` of the merged
        report additionally includes fan-out/merge IPC, so throughput
        studies report both.  0.0 before the first tick.
        """
        return self._last_max_shard_seconds

    @property
    def last_max_shard_cpu_seconds(self) -> float:
        """Slowest shard's CPU time in the last tick (0.0 before one).

        Unlike :attr:`last_max_shard_seconds` this is immune to core
        contention: on an oversubscribed machine (more workers than cores)
        it still reports what the critical path would cost with every shard
        on its own core.
        """
        return self._last_max_shard_cpu_seconds

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def result_of(self, query_id: int) -> KnnResult:
        """Current k-NN result of a query (after the last tick).

        Raises :class:`~repro.exceptions.MonitoringError` on a closed
        server and :class:`~repro.exceptions.ServerFailedError` on a failed
        one: a closed fleet can no longer refresh the cache, so serving
        from it would silently return stale answers.  Read (and keep)
        :meth:`results` before closing if the final state is needed.
        """
        self._ensure_open()
        try:
            return self._merged_results[query_id]
        except KeyError as exc:
            raise UnknownQueryError(query_id) from exc

    def results(self) -> Dict[int, KnnResult]:
        """Current results of every query.

        Like :meth:`result_of`, refuses on a closed or failed server with
        the matching typed error instead of serving a cache that can never
        be refreshed again.
        """
        self._ensure_open()
        return dict(self._merged_results)

    def discard_pending(self) -> UpdateBatch:
        """Drop (and return) every buffered-but-unprocessed update.

        Refuses on a closed or failed server — the buffer's overlays would
        be cleared on a fleet nobody can observe anymore, so a silent
        success would only mask a use-after-close bug in the caller.
        """
        self._ensure_open()
        return super().discard_pending()

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot_state(self, *, static: bool = True) -> bytes:
        """Serialize the complete fleet state to one opaque blob.

        Each shard answers a ``("snapshot",)`` request with its pickled
        monitor — expansion trees, per-query float history and all — and
        the parent packs those blobs together with its own authoritative
        state through the base class's encoder: the network and edge table
        as a static section plus weight / object columns, then the entity
        maps, pending buffer and merged results.
        :func:`~repro.core.server.restore_server` rebuilds the server by
        rebuilding one shard per blob — the last one in this process — so
        the restored fleet continues
        byte-identically.  Like a tick, a shard failure while snapshotting
        fails the server closed.

        Args:
            static: pass False for the dynamic section alone (see
                :meth:`MonitoringServer.snapshot_state`).
        """
        self._ensure_open()
        try:
            return self._snapshot_state_inner(static)
        except BaseException as exc:
            self._fail(exc)
            raise

    def _snapshot_state_inner(self, static: bool) -> bytes:
        """The actual snapshot sequence (:meth:`snapshot_state` fail-closes)."""
        shard_blobs = self._exchange("snapshot", [("snapshot",)] * len(self._shards))
        return self._encode_snapshot(
            static,
            "sharded",
            {
                "algorithm": self._algorithm_key,
                "workers": self._num_workers,
                "partitioning": self._partitioning,
                "shards": self._num_shards,
                "start_method": self._start_method,
                "recv_timeout": self._recv_timeout,
                "merged_results": self._merged_results,
                "shard_blobs": shard_blobs,
                "boundary_queries": self._boundary_queries,
                "divergent_queries": self._divergent_queries,
            },
        )

    @classmethod
    def _restore(cls, state: Dict[str, object]) -> "ShardedMonitoringServer":
        """Rebuild a sharded server from a decoded snapshot-state dict.

        Invoked by :func:`~repro.core.server.restore_server`; bypasses
        ``__init__`` (the snapshot already holds constructed state) and
        rebuilds the fleet from the per-shard monitor blobs.  Keys it does
        not read — such as the copy-mode flag and the settle-engine name
        older versions wrote — are ignored, so their snapshots still
        restore.
        """
        try:
            server = object.__new__(cls)
            server._num_workers = state["workers"]
            server._partitioning = state["partitioning"]
            server._num_shards = state["shards"]
            server._start_method = state["start_method"]
            server._recv_timeout = state["recv_timeout"]
            server._closed = False
            server._failed = None
            server._shards = []
            server._merged_results = dict(state["merged_results"])
            server._finalizer = None
            server._algorithm_key = state["algorithm"]
            server._monitor = None
            server._adopt_snapshot(state)
            server._assignment = {}
            server._query_owner = {}
            server._boundary_queries = state["boundary_queries"]
            server._divergent_queries = state["divergent_queries"]
            server._boundary_refresh_needed = False
            server._last_max_shard_seconds = 0.0
            server._last_max_shard_cpu_seconds = 0.0
            shard_blobs = list(state["shard_blobs"])
        except KeyError as exc:
            raise RecoveryError(f"sharded snapshot is missing field {exc}") from exc
        server._spawn_workers(initial_queries={}, monitor_blobs=shard_blobs)
        return server

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        shards, self._shards = self._shards, []
        _cleanup(shards)
