"""Oracle-backed differential runner for scenario streams.

:func:`run_differential_scenario` builds a seeded network and scenario
stream, runs the requested monitoring algorithms in lock-step — by default
IMA and GMA — and compares every
query's result at every timestamp against the independent
:class:`~repro.testing.oracle.OracleMonitor`.  The returned report carries a
one-command replay line so any fuzz failure reproduces locally from just
``(scenario, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.base import MonitorBase
from repro.core.events import apply_batch
from repro.core.gma import GmaMonitor
from repro.core.ima import ImaMonitor
from repro.core.ovh import OvhMonitor
from repro.core.results import results_equal
from repro.core.server import MonitoringServer
from repro.exceptions import SimulationError
from repro.network.builders import city_network
from repro.network.edge_table import EdgeTable
from repro.network.graph import RoadNetwork
from repro.testing.oracle import OracleMonitor
from repro.testing.scenarios import MIXED_QUERY_MIX, ScenarioEngine, resolve_scenario

#: Algorithm names accepted by :func:`run_differential_scenario`.
_MONITOR_CLASSES = {"OVH": OvhMonitor, "IMA": ImaMonitor, "GMA": GmaMonitor}

#: The default panel: both incremental monitors, which must agree with the
#: oracle.
DEFAULT_ALGORITHMS = ("IMA", "GMA")


def _make_monitor(name: str, network, edge_table) -> MonitorBase:
    cls = _MONITOR_CLASSES.get(name.upper())
    if cls is None:
        raise SimulationError(
            f"unknown differential algorithm {name!r}; use one of {sorted(_MONITOR_CLASSES)}"
        )
    return cls(network, edge_table)


def replay_command(
    scenario: str,
    seed: int,
    workers: Optional[int] = None,
    server_algorithm: str = "ima",
    query_types: str = "default",
    dedup: bool = False,
    partitioning: str = "replica",
) -> str:
    """The one-command local reproduction of a fuzz failure.

    When the failing run overlaid the mixed query-type distribution, the
    command carries ``FUZZ_QUERY_TYPES=mixed``.  When it drove servers
    (``workers`` set), the command carries ``FUZZ_WORKERS`` (and
    ``FUZZ_SERVER_ALGORITHM`` when not the default) so a sharded-only
    divergence reproduces too.  When it ran the dedup frontend next to the
    plain servers it carries ``FUZZ_DEDUP=1``, and when it additionally
    drove a graph-partitioned sharded leg it carries
    ``FUZZ_PARTITIONING=graph``.
    """
    env = f"FUZZ_SCENARIO={scenario} FUZZ_SEED={seed} "
    if query_types != "default":
        env += f"FUZZ_QUERY_TYPES={query_types} "
    if dedup:
        env += "FUZZ_DEDUP=1 "
    if workers is not None:
        env += f"FUZZ_WORKERS={workers} "
        if server_algorithm.lower() != "ima":
            env += f"FUZZ_SERVER_ALGORITHM={server_algorithm} "
        if partitioning != "replica":
            env += f"FUZZ_PARTITIONING={partitioning} "
    return (
        env + "PYTHONPATH=src "
        "python -m pytest tests/test_fuzz_differential.py::test_replay_from_env -q -s"
    )


@dataclass
class DifferentialReport:
    """Outcome of one oracle-backed differential scenario run."""

    scenario: str
    seed: int
    timestamps: int
    checks: int = 0
    mismatches: List[str] = field(default_factory=list)
    #: the server configuration of the run, carried so failure_message can
    #: emit a replay command that reconstructs the same servers
    workers: Optional[int] = None
    server_algorithm: str = "ima"
    #: the query-type overlay of the run ("default" or "mixed"), carried so
    #: failure_message can emit FUZZ_QUERY_TYPES
    query_types: str = "default"
    #: whether the run drove the dedup frontend next to the plain servers,
    #: carried so failure_message can emit FUZZ_DEDUP
    dedup: bool = False
    #: the sharded-server partitioning of the run ("replica" or "graph"),
    #: carried so failure_message can emit FUZZ_PARTITIONING
    partitioning: str = "replica"

    @property
    def ok(self) -> bool:
        """True when every check agreed with the oracle."""
        return not self.mismatches

    def failure_message(self, limit: int = 5) -> str:
        """Human-readable failure summary including the replay command."""
        shown = "\n  ".join(self.mismatches[:limit])
        more = len(self.mismatches) - min(limit, len(self.mismatches))
        suffix = f"\n  ... and {more} more" if more > 0 else ""
        return (
            f"scenario {self.scenario!r} seed {self.seed} diverged from the oracle "
            f"({len(self.mismatches)} mismatches over {self.timestamps} ticks):\n"
            f"  {shown}{suffix}\n"
            f"replay locally with:\n  "
            f"{replay_command(self.scenario, self.seed, self.workers, self.server_algorithm, query_types=self.query_types, dedup=self.dedup, partitioning=self.partitioning)}"
        )


def _make_scenario_server(
    network: RoadNetwork,
    engine: ScenarioEngine,
    algorithm: str,
    workers: Optional[int],
    dedup: bool = False,
    partitioning: str = "replica",
) -> MonitoringServer:
    """A server over a private network replica, primed with the engine's state.

    The replica lets the server apply every batch itself (through
    ``apply_updates`` + ``tick``) without double-applying to the harness's
    shared network.  ``workers=None`` builds the plain in-process server;
    any integer — including 1 — builds a
    :class:`~repro.core.sharding.ShardedMonitoringServer` with that many
    shards, so the tick records and the merge are exercised even in the
    single-worker matrix leg (whose one shard the coordinator hosts).
    With ``dedup=True`` the server is wrapped in a
    :class:`~repro.core.dedup.DedupFrontend` *before* the initial queries
    are installed, so co-located tenants of the scenario share physical
    queries from the very first tick.  ``partitioning="graph"`` builds the
    sharded server over network-partitioned region shards instead of full
    replicas (ignored for the in-process server, which has no shards).
    """
    from repro.core.sharding import ShardedMonitoringServer

    replica = network.copy()
    edge_table = EdgeTable(replica, build_spatial_index=False)
    for object_id, location in engine.initial_objects().items():
        edge_table.insert_object(object_id, location)
    if workers is None:
        server = MonitoringServer(replica, algorithm=algorithm, edge_table=edge_table)
    else:
        server = ShardedMonitoringServer(
            replica,
            algorithm=algorithm,
            edge_table=edge_table,
            workers=workers,
            partitioning=partitioning,
        )
    if dedup:
        from repro.core.dedup import DedupFrontend

        server = DedupFrontend(server)
    for query_id, (location, k) in engine.initial_queries().items():
        server.add_query(query_id, location, k)
    return server


def run_differential_scenario(
    scenario,
    seed: int,
    algorithms: Tuple[str, ...] = DEFAULT_ALGORITHMS,
    network: Optional[RoadNetwork] = None,
    network_edges: int = 120,
    timestamps: Optional[int] = None,
    workers: Optional[int] = None,
    server_algorithm: str = "ima",
    query_types: str = "default",
    dedup: bool = False,
    partitioning: str = "replica",
) -> DifferentialReport:
    """Run *algorithms* over a scenario stream and diff them against the oracle.

    Everything — the network, the placements, the update stream — derives
    from ``(scenario, seed)``, so the run is exactly reproducible.  At every
    timestamp each monitor's :class:`~repro.core.base.TimestepReport` must
    carry the batch's timestamp and every live query's distance profile must
    match the brute-force oracle's.

    ``query_types="mixed"`` overlays :data:`MIXED_QUERY_MIX` on the
    scenario, so installed queries draw from all three kinds (k-NN, range,
    aggregate k-NN) regardless of the preset's own mix.

    When *workers* is given, the same stream additionally drives two
    :class:`~repro.core.server.MonitoringServer` instances running
    *server_algorithm* over private network replicas — a single-process one
    and a sharded one with that many shards — through the batched
    ``apply_updates`` + ``tick`` pipeline.  Both must match the oracle at
    every timestamp, and the sharded server's results must be identical to
    the single-process server's.

    With ``dedup=True`` the stream additionally drives servers wrapped in a
    :class:`~repro.core.dedup.DedupFrontend` — one over a single-process
    server (always) and one over a sharded server (when *workers* is set) —
    and a plain single-process reference even if *workers* is unset.  Every
    dedup server must match the oracle, and its per-logical-query neighbor
    lists must be **byte-identical** to the plain reference server's: the
    canonicalization shares physical queries but never changes any tenant's
    answer.  One carve-out: on venue scenarios (the only ones whose
    placements *exactly* coincide, so tenants can join an existing group
    mid-stream) an IMA joiner inherits the group's expansion tree, whose
    float history — composed weight shifts and movement re-root offsets —
    differs in the last ULP from the fresh private install the plain
    server gives that tenant (co-located IMA queries installed at
    different times diverge the same way *within* the plain server).  For
    that combination the dedup answers are checked with
    :func:`~repro.core.results.results_equal` like every other panel
    member; byte-identity stays enforced for every other scenario and for
    the history-free GMA/OVH servers on venue scenarios too.

    With ``partitioning="graph"`` (requires *workers*) the stream drives a
    **third** sharded leg built over network-partitioned region shards
    instead of full replicas.  It must match the oracle at every timestamp
    and be **byte-identical** to the single-process reference for every
    query except those the partitioned server itself reports in
    :meth:`~repro.core.sharding.ShardedMonitoringServer.divergent_query_ids`
    — IMA queries that escalated to coordinator-side boundary evaluation,
    whose fresh re-expansion differs in the last ULP from the incremental
    expansion-tree history (the same float-history class as the dedup
    carve-out above); those are still checked against the oracle with
    :func:`~repro.core.results.results_equal`.

    Example::

        report = run_differential_scenario("churn-heavy", seed=7, workers=4)
        assert report.ok, report.failure_message()
    """
    if query_types not in ("default", "mixed"):
        raise SimulationError(
            f"unknown query_types {query_types!r}; use 'default' or 'mixed'"
        )
    spec = resolve_scenario(scenario)
    if query_types == "mixed":
        # Overlay the mixed query-kind distribution: every preset fuzzes
        # k-NN, range and aggregate queries through the same stressors.
        spec = spec.with_overrides(query_mix=MIXED_QUERY_MIX)
    if network is None:
        network = city_network(network_edges, seed=seed + 1)
    edge_table = EdgeTable(network, build_spatial_index=False)
    engine = ScenarioEngine(network, spec, seed=seed)
    for object_id, location in engine.initial_objects().items():
        edge_table.insert_object(object_id, location)

    oracle = OracleMonitor(network, edge_table)
    monitors: Dict[str, MonitorBase] = {
        name: _make_monitor(name, network, edge_table) for name in algorithms
    }
    for query_id, (location, k) in engine.initial_queries().items():
        oracle.register_query(query_id, location, k)
        for monitor in monitors.values():
            monitor.register_query(query_id, location, k)

    servers: Dict[str, MonitoringServer] = {}
    if workers is not None and workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if partitioning not in ("replica", "graph"):
        raise SimulationError(
            f"unknown partitioning {partitioning!r}; use 'replica' or 'graph'"
        )
    if partitioning == "graph" and workers is None:
        raise SimulationError("partitioning='graph' requires workers")
    prefix = server_algorithm.upper()
    if workers is not None or dedup:
        # Distinct keys even when workers == 1: the baseline is always the
        # in-process server, the second a sharded one with that many worker
        # processes.  The baseline doubles as the byte-identity reference
        # for the dedup frontends.
        servers[f"{prefix}-server-single"] = _make_scenario_server(
            network, engine, server_algorithm, workers=None
        )
    if workers is not None:
        servers[f"{prefix}-server-x{workers}"] = _make_scenario_server(
            network, engine, server_algorithm, workers=workers
        )
    graph_name: Optional[str] = None
    if partitioning == "graph" and workers is not None:
        # A third sharded leg over network-partitioned region shards; the
        # replica leg above stays as the like-for-like IPC baseline so
        # replica/graph divergences are attributable to partitioning alone.
        graph_name = f"{prefix}-server-graph-x{workers}"
        servers[graph_name] = _make_scenario_server(
            network, engine, server_algorithm, workers=workers, partitioning=partitioning
        )
    if dedup:
        servers[f"{prefix}-dedup-single"] = _make_scenario_server(
            network, engine, server_algorithm, workers=None, dedup=True
        )
        if workers is not None:
            servers[f"{prefix}-dedup-x{workers}"] = _make_scenario_server(
                network, engine, server_algorithm, workers=workers, dedup=True
            )

    # Byte-identity of dedup vs plain results holds unless a tenant can
    # join an existing dedup group mid-stream (only venue scenarios place
    # queries on *exactly* coinciding locations) AND the algorithm carries
    # per-query float history across ticks (IMA composes weight shifts and
    # movement re-root offsets onto its expansion trees) — see the
    # docstring carve-out.
    byte_identical = (
        spec.venue_fraction == 0 or server_algorithm.lower() != "ima"
    )

    rounds = spec.timestamps if timestamps is None else timestamps
    report = DifferentialReport(
        scenario=spec.name,
        seed=seed,
        timestamps=rounds,
        workers=workers,
        server_algorithm=server_algorithm,
        query_types=query_types,
        dedup=dedup,
        partitioning=partitioning,
    )
    try:
        for batch in engine.batches(rounds):
            apply_batch(network, edge_table, batch.normalized())
            oracle_report = oracle.process_batch(batch)
            if oracle_report.timestamp != batch.timestamp:
                report.mismatches.append(
                    f"t={batch.timestamp} ORACLE reported timestamp "
                    f"{oracle_report.timestamp}"
                )
            for name, monitor in monitors.items():
                tick_report = monitor.process_batch(batch)
                if tick_report.timestamp != batch.timestamp:
                    report.mismatches.append(
                        f"t={batch.timestamp} {name} reported timestamp "
                        f"{tick_report.timestamp}"
                    )
            for name, server in servers.items():
                server.apply_updates(batch)
                tick_report = server.tick()
                if tick_report.timestamp != batch.timestamp:
                    report.mismatches.append(
                        f"t={batch.timestamp} {name} reported timestamp "
                        f"{tick_report.timestamp}"
                    )
            for query_id in sorted(engine.live_queries()):
                truth = list(oracle.result_of(query_id).neighbors)
                for name, monitor in monitors.items():
                    report.checks += 1
                    answer = list(monitor.result_of(query_id).neighbors)
                    if not results_equal(truth, answer):
                        report.mismatches.append(
                            f"t={batch.timestamp} {name} q={query_id}: "
                            f"expected {truth} got {answer}"
                        )
                reference: Optional[List] = None
                for name, server in servers.items():
                    report.checks += 1
                    answer = list(server.result_of(query_id).neighbors)
                    if not results_equal(truth, answer):
                        report.mismatches.append(
                            f"t={batch.timestamp} {name} q={query_id}: "
                            f"expected {truth} got {answer}"
                        )
                    if reference is None:
                        reference = answer
                    elif not results_equal(reference, answer):
                        report.mismatches.append(
                            f"t={batch.timestamp} {name} q={query_id}: sharded "
                            f"result {answer} != single-process {reference}"
                        )
                    elif "-dedup-" in name and byte_identical and answer != reference:
                        report.mismatches.append(
                            f"t={batch.timestamp} {name} q={query_id}: dedup "
                            f"result {answer} not byte-identical to plain "
                            f"{reference}"
                        )
                    elif (
                        name == graph_name
                        and answer != reference
                        and query_id not in server.divergent_query_ids()
                    ):
                        report.mismatches.append(
                            f"t={batch.timestamp} {name} q={query_id}: "
                            f"graph-partitioned result {answer} not "
                            f"byte-identical to single-process {reference}"
                        )
    finally:
        for server in servers.values():
            server.close()
    return report


def run_differential_log(
    data_dir,
    algorithms: Tuple[str, ...] = DEFAULT_ALGORITHMS,
    max_ticks: Optional[int] = None,
) -> DifferentialReport:
    """Differentially replay a captured service event log against the oracle.

    The durable service's write-ahead log doubles as a workload capture:
    this loads the genesis checkpoint of *data_dir* (network, objects, and
    any pre-registered queries — without spawning workers), rebuilds an
    independent oracle plus the requested monitor panel from that state,
    and feeds them the logged batches in order, comparing every live
    query's result at every timestamp exactly as
    :func:`run_differential_scenario` does for synthetic streams.

    Args:
        data_dir: a service data directory (``events.log`` + checkpoints).
        algorithms: the monitor panel to replay against the oracle.
        max_ticks: replay at most this many logged batches (None = all).

    Example::

        report = run_differential_log("service-data")
        assert report.ok, report.failure_message()
    """
    # Call-time imports keep repro.testing importable without the service
    # package's asyncio machinery on unrelated paths.
    from repro.core.events import decode_batch
    from repro.service.durable import load_initial_state
    from repro.service.eventlog import read_event_log
    import pathlib

    initial = load_initial_state(data_dir)
    network = initial.network
    edge_table = initial.edge_table

    oracle = OracleMonitor(network, edge_table)
    monitors: Dict[str, MonitorBase] = {
        name: _make_monitor(name, network, edge_table) for name in algorithms
    }
    # The live queries: the applied query map each record is decoded against.
    query_locations = {
        query_id: location for query_id, (location, _) in initial.queries.items()
    }
    for query_id in sorted(initial.queries):
        location, k = initial.queries[query_id]
        oracle.register_query(query_id, location, k)
        for monitor in monitors.values():
            monitor.register_query(query_id, location, k)

    payloads = read_event_log(pathlib.Path(data_dir) / "events.log")
    if max_ticks is not None:
        payloads = payloads[:max_ticks]

    report = DifferentialReport(
        scenario=f"log:{data_dir}",
        seed=-1,
        timestamps=len(payloads),
    )
    for payload in payloads:
        # Logged net, and marked so by the record; decoded before it is
        # applied, so the table and the query map still hold the old values
        # it leaves out.
        batch = decode_batch(payload, edge_table, query_locations)
        apply_batch(network, edge_table, batch.net())
        oracle_report = oracle.process_batch(batch)
        if oracle_report.timestamp != batch.timestamp:
            report.mismatches.append(
                f"t={batch.timestamp} ORACLE reported timestamp "
                f"{oracle_report.timestamp}"
            )
        for name, monitor in monitors.items():
            tick_report = monitor.process_batch(batch)
            if tick_report.timestamp != batch.timestamp:
                report.mismatches.append(
                    f"t={batch.timestamp} {name} reported timestamp "
                    f"{tick_report.timestamp}"
                )
        for update in batch.query_updates:
            if update.is_termination:
                query_locations.pop(update.query_id, None)
            else:
                query_locations[update.query_id] = update.new_location
        for query_id in sorted(query_locations):
            truth = list(oracle.result_of(query_id).neighbors)
            for name, monitor in monitors.items():
                report.checks += 1
                answer = list(monitor.result_of(query_id).neighbors)
                if not results_equal(truth, answer):
                    report.mismatches.append(
                        f"t={batch.timestamp} {name} q={query_id}: "
                        f"expected {truth} got {answer}"
                    )
    return report
