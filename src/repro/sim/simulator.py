"""Simulation driver: run OVH / IMA / GMA in lock-step over one workload.

The simulator reproduces the paper's experimental methodology (Section 6):

1. build a road network (a synthetic San-Francisco-like mesh, or any network
   the caller supplies),
2. place N data objects and Q continuous queries according to the configured
   distributions,
3. register the queries with every monitoring algorithm under test,
4. for ``timestamps`` rounds: generate the object movements, query movements
   and edge-weight fluctuations of one timestamp, apply them to the shared
   state once, feed the same batch to every monitor, and record per-monitor
   wall-clock time, work counters, memory footprint and result changes,
5. optionally validate that all monitors report identical results at every
   timestamp (the differential-testing backbone of the test suite).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Type

from repro.core.base import MonitorBase, TimestepReport
from repro.core.events import (
    EdgeWeightUpdate,
    ObjectUpdate,
    QueryUpdate,
    UpdateBatch,
    apply_batch,
)
from repro.core.gma import GmaMonitor
from repro.core.ima import ImaMonitor
from repro.core.ovh import OvhMonitor
from repro.core.results import results_equal
from repro.core.server import MonitoringServer
from repro.exceptions import SimulationError
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.distributions import place
from repro.mobility.random_walk import RandomWalkModel
from repro.mobility.traffic import TrafficModel
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.sim.datasets import san_francisco_like
from repro.sim.metrics import AlgorithmMetrics, SimulationResult
from repro.sim.workload import WorkloadConfig
from repro.testing.oracle import OracleMonitor
from repro.testing.scenarios import ScenarioEngine, resolve_scenario
from repro.utils.rng import derive_rng, make_rng

_MONITOR_CLASSES: Dict[str, Type[MonitorBase]] = {
    "OVH": OvhMonitor,
    "IMA": ImaMonitor,
    "GMA": GmaMonitor,
}

#: Query ids start here so they never collide with object ids.
QUERY_ID_BASE = 1_000_000


class Simulator:
    """Builds and runs one monitoring scenario from a :class:`WorkloadConfig`."""

    def __init__(
        self,
        config: WorkloadConfig,
        network: Optional[RoadNetwork] = None,
    ) -> None:
        """Prepare the scenario (network, placements, mobility, traffic).

        Args:
            config: the workload parameters.
            network: optionally a pre-built network (e.g. a real road map);
                when omitted a synthetic San-Francisco-like mesh with
                ``config.network_edges`` edges is generated.
        """
        self._config = config
        root_rng = make_rng(config.seed)
        self._network = (
            network
            if network is not None
            else san_francisco_like(config.network_edges, seed=derive_rng(root_rng, "network"))
        )
        self._edge_table = EdgeTable(self._network)

        object_locations = place(
            self._network,
            config.num_objects,
            config.object_distribution,
            std_fraction=0.5,  # the paper's Gaussian-object experiments use 50 %
            seed=derive_rng(root_rng, "objects"),
        )
        self._object_locations: Dict[int, NetworkLocation] = dict(enumerate(object_locations))
        for object_id, location in self._object_locations.items():
            self._edge_table.insert_object(object_id, location)

        query_locations = place(
            self._network,
            config.num_queries,
            config.query_distribution,
            std_fraction=config.gaussian_std_fraction,
            seed=derive_rng(root_rng, "queries"),
        )
        self._query_locations: Dict[int, NetworkLocation] = {
            QUERY_ID_BASE + index: location for index, location in enumerate(query_locations)
        }

        if config.mobility_model.lower() == "brinkhoff":
            self._object_model = BrinkhoffGenerator(
                self._network,
                dict(self._object_locations),
                agility=config.object_agility,
                seed=derive_rng(root_rng, "object-mobility"),
            )
        else:
            self._object_model = RandomWalkModel(
                self._network,
                dict(self._object_locations),
                speed=config.object_speed,
                agility=config.object_agility,
                seed=derive_rng(root_rng, "object-mobility"),
            )
        self._query_model = RandomWalkModel(
            self._network,
            dict(self._query_locations),
            speed=config.query_speed,
            agility=config.query_agility,
            seed=derive_rng(root_rng, "query-mobility"),
        )
        self._traffic = TrafficModel(
            self._network,
            edge_agility=config.edge_agility,
            seed=derive_rng(root_rng, "traffic"),
        )

    # ------------------------------------------------------------------
    # accessors (used by tests and ad-hoc analyses)
    # ------------------------------------------------------------------
    @property
    def config(self) -> WorkloadConfig:
        return self._config

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def edge_table(self) -> EdgeTable:
        return self._edge_table

    def query_locations(self) -> Dict[int, NetworkLocation]:
        return dict(self._query_locations)

    def object_locations(self) -> Dict[int, NetworkLocation]:
        return dict(self._object_locations)

    # ------------------------------------------------------------------
    # batch generation
    # ------------------------------------------------------------------
    def generate_batch(self, timestamp: int) -> UpdateBatch:
        """Generate (but do not apply) the updates of one timestamp."""
        batch = UpdateBatch(timestamp=timestamp)
        for edge_id, old_weight, new_weight in self._traffic.step():
            batch.edge_updates.append(EdgeWeightUpdate(edge_id, old_weight, new_weight))
        for object_id, old_location, new_location in self._object_model.step():
            batch.object_updates.append(ObjectUpdate(object_id, old_location, new_location))
            self._object_locations[object_id] = new_location
        for query_id, old_location, new_location in self._query_model.step():
            batch.query_updates.append(QueryUpdate(query_id, old_location, new_location))
            self._query_locations[query_id] = new_location
        return batch

    # ------------------------------------------------------------------
    # server-driven runs (the batched ingestion path)
    # ------------------------------------------------------------------
    def make_server(
        self,
        algorithm: str = "ima",
        workers: int = 1,
        partitioning: str = "replica",
    ) -> MonitoringServer:
        """Build a :class:`MonitoringServer` sharing this scenario's state.

        The server reuses the simulator's network and edge table, so the
        pre-placed data objects are already registered; the configured
        queries are installed through the server's pending buffer and take
        effect at its first tick.  Pass ``workers > 1`` for a sharded
        multi-process server (close it when done — e.g. drive it inside a
        ``with`` block).  ``partitioning="graph"`` builds the sharded server over network
        region shards instead of full replicas (see
        :class:`~repro.core.sharding.ShardedMonitoringServer`).
        """
        server = MonitoringServer(
            self._network,
            algorithm,
            edge_table=self._edge_table,
            workers=workers,
            partitioning=partitioning,
        )
        for query_id, location in self._query_locations.items():
            server.add_query(query_id, location, self._config.k)
        return server

    def drive_server(
        self, server: MonitoringServer, timestamps: Optional[int] = None
    ) -> List[TimestepReport]:
        """Feed generated update batches through the server's batch API.

        Each timestamp's updates are ingested with one
        :meth:`~repro.core.server.MonitoringServer.apply_updates` call
        followed by one tick — the pipeline production feeds use — instead
        of thousands of per-entity method calls.  Returns the per-timestamp
        :class:`~repro.core.base.TimestepReport` list.
        """
        rounds = self._config.timestamps if timestamps is None else timestamps
        reports = []
        for timestamp in range(rounds):
            server.apply_updates(self.generate_batch(timestamp))
            reports.append(server.tick())
        return reports

    # ------------------------------------------------------------------
    # scenario-driven runs (the testing/fuzz workload engine)
    # ------------------------------------------------------------------
    def scenario_engine(self, scenario, seed: Optional[int] = None) -> ScenarioEngine:
        """A :class:`~repro.testing.scenarios.ScenarioEngine` over this scenario.

        The engine adopts the simulator's pre-placed objects and configured
        queries as its initial state and generates update batches by
        composing the scenario's stressors instead of the mobility models.
        Drive it with :meth:`run_scenario`, or feed its batches through
        :meth:`~repro.core.server.MonitoringServer.apply_updates` yourself.
        """
        return ScenarioEngine(
            self._network,
            resolve_scenario(scenario),
            seed=self._config.seed if seed is None else seed,
            initial_objects=dict(self._object_locations),
            initial_queries={
                query_id: (location, self._config.k)
                for query_id, location in self._query_locations.items()
            },
        )

    def run_scenario(
        self,
        scenario,
        algorithms: Sequence[str] = ("OVH", "IMA", "GMA"),
        seed: Optional[int] = None,
        timestamps: Optional[int] = None,
        validate: bool = False,
        oracle: bool = False,
        collect_memory: bool = False,
    ) -> SimulationResult:
        """Run the monitors over a scenario stream instead of the mobility models.

        Args:
            scenario: a preset name from
                :data:`~repro.testing.scenarios.SCENARIO_PRESETS` or a
                :class:`~repro.testing.scenarios.ScenarioSpec`.
            algorithms: which monitors to run.
            seed: scenario stream seed (defaults to the workload seed).
            timestamps: stream length (defaults to the scenario's).
            validate: compare every monitor against the reference at every
                timestamp and count mismatches.
            oracle: when validating, use a brute-force
                :class:`~repro.testing.oracle.OracleMonitor` as the
                reference instead of the first listed algorithm (slower,
                but an independent ground truth).
            collect_memory: sample memory footprints per timestamp.

        Note: like :meth:`run`, this consumes the simulator's shared state;
        use a fresh :class:`Simulator` per run.

        Raises:
            SimulationError: when the validation arguments cannot check
                anything — ``oracle=True`` without ``validate=True``, or
                ``validate=True`` against nothing (a single algorithm with
                no oracle).
        """
        if oracle and not validate:
            raise SimulationError("oracle=True requires validate=True")
        if validate and not oracle and len(algorithms) < 2:
            raise SimulationError(
                "validate=True needs either oracle=True or at least two "
                "algorithms to compare"
            )
        engine = self.scenario_engine(scenario, seed=seed)
        monitors = self.build_monitors(algorithms)
        oracle_monitor: Optional[MonitorBase] = None
        if validate and oracle:
            oracle_monitor = OracleMonitor(self._network, self._edge_table)
        metrics = {name: AlgorithmMetrics(algorithm=name) for name in monitors}

        for name, monitor in monitors.items():
            start = time.perf_counter()
            for query_id, (location, k) in engine.initial_queries().items():
                monitor.register_query(query_id, location, k)
            metrics[name].initial_seconds = time.perf_counter() - start
        if oracle_monitor is not None:
            for query_id, (location, k) in engine.initial_queries().items():
                oracle_monitor.register_query(query_id, location, k)

        validator = None
        if validate:
            reference = oracle_monitor or next(iter(monitors.values()))

            def validator(batch):
                if oracle_monitor is not None:
                    oracle_monitor.process_batch(batch)
                return self._validate_against(reference, monitors, engine.live_queries())

        rounds = engine.spec.timestamps if timestamps is None else timestamps
        mismatches = self._drive_batches(
            monitors, metrics, engine.batches(rounds), collect_memory, validator
        )

        return SimulationResult(
            config_description={
                **self._config.describe(),
                "scenario": engine.spec.name,
                "scenario_seed": engine.seed,
            },
            metrics=metrics,
            validation_mismatches=mismatches,
            validated=validate,
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def build_monitors(self, algorithms: Sequence[str]) -> Dict[str, MonitorBase]:
        """Instantiate the requested monitors over the shared state."""
        monitors: Dict[str, MonitorBase] = {}
        for name in algorithms:
            key = name.upper()
            if key not in _MONITOR_CLASSES:
                raise SimulationError(
                    f"unknown algorithm {name!r}; choose among {sorted(_MONITOR_CLASSES)}"
                )
            monitors[key] = _MONITOR_CLASSES[key](self._network, self._edge_table)
        return monitors

    def run(
        self,
        algorithms: Sequence[str] = ("OVH", "IMA", "GMA"),
        validate: bool = False,
        collect_memory: bool = True,
    ) -> SimulationResult:
        """Run the scenario and return per-algorithm metrics.

        Args:
            algorithms: which monitors to run (names are case-insensitive).
            validate: when True, every monitor's result for every query is
                compared against the first listed algorithm at every
                timestamp; mismatches are counted in the returned result.
            collect_memory: sample :meth:`MonitorBase.memory_footprint_bytes`
                after every timestamp (adds a little overhead).
        """
        monitors = self.build_monitors(algorithms)
        metrics = {
            name: AlgorithmMetrics(algorithm=name) for name in monitors
        }

        # Initial result computation (not part of the per-timestamp cost,
        # mirroring the paper's methodology).
        for name, monitor in monitors.items():
            start = time.perf_counter()
            for query_id, location in self._query_locations.items():
                monitor.register_query(query_id, location, self._config.k)
            metrics[name].initial_seconds = time.perf_counter() - start

        validator = None
        if validate and len(monitors) > 1:
            reference = next(iter(monitors.values()))

            def validator(batch):
                return self._validate_against(
                    reference, monitors, self._query_locations
                )

        batches = (
            self.generate_batch(timestamp)
            for timestamp in range(self._config.timestamps)
        )
        mismatches = self._drive_batches(
            monitors, metrics, batches, collect_memory, validator
        )

        return SimulationResult(
            config_description=self._config.describe(),
            metrics=metrics,
            validation_mismatches=mismatches,
            validated=validate,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _drive_batches(
        self,
        monitors: Dict[str, MonitorBase],
        metrics: Dict[str, AlgorithmMetrics],
        batches,
        collect_memory: bool,
        validator=None,
    ) -> int:
        """Apply each batch once, feed it to every monitor, record metrics.

        The shared per-tick driver of :meth:`run` and :meth:`run_scenario`.
        *validator*, when given, is called after every tick with the batch
        and returns that tick's mismatch count.
        """
        mismatches = 0
        for batch in batches:
            apply_batch(self._network, self._edge_table, batch.normalized())
            for name, monitor in monitors.items():
                report = monitor.process_batch(batch)
                metrics[name].seconds_per_timestamp.append(report.elapsed_seconds)
                metrics[name].counters_per_timestamp.append(report.counters)
                metrics[name].changed_queries_per_timestamp.append(
                    len(report.changed_queries)
                )
                if collect_memory:
                    metrics[name].memory_bytes_per_timestamp.append(
                        monitor.memory_footprint_bytes()
                    )
            if validator is not None:
                mismatches += validator(batch)
        return mismatches

    def _validate_against(
        self, reference: MonitorBase, monitors: Dict[str, MonitorBase], query_ids
    ) -> int:
        """Count monitors disagreeing with *reference* over *query_ids*."""
        mismatches = 0
        for query_id in query_ids:
            expected = list(reference.result_of(query_id).neighbors)
            for monitor in monitors.values():
                if monitor is reference:
                    continue
                actual = list(monitor.result_of(query_id).neighbors)
                if not results_equal(expected, actual):
                    mismatches += 1
        return mismatches
