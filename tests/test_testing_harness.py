"""Unit tests of the verification harness itself (oracle, engine, wiring)."""

from __future__ import annotations

import pytest

from repro.core.events import apply_batch
from repro.exceptions import SimulationError
from repro.network.builders import city_network
from repro.network.distance import brute_force_knn
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.sim.simulator import Simulator
from repro.sim.workload import WorkloadConfig
from repro.testing import (
    SCENARIO_PRESETS,
    OracleMonitor,
    ScenarioEngine,
    ScenarioSpec,
    resolve_scenario,
    run_differential_scenario,
)


@pytest.fixture
def small_world():
    network = city_network(100, seed=4)
    table = EdgeTable(network, build_spatial_index=False)
    edges = sorted(network.edge_ids())
    for object_id in range(12):
        table.insert_object(object_id, NetworkLocation(edges[3 * object_id], 0.5))
    return network, table, edges


class TestOracleMonitor:
    def test_matches_brute_force_and_tracks_updates(self, small_world):
        network, table, edges = small_world
        oracle = OracleMonitor(network, table)
        location = NetworkLocation(edges[5], 0.25)
        result = oracle.register_query(1, location, 3)
        assert list(result.neighbors) == brute_force_knn(network, table, location, 3)

        engine = ScenarioEngine(
            network,
            ScenarioSpec(
                name="unit",
                object_move_fraction=0.4,
                edge_storm_fraction=0.1,
                query_move_fraction=0.0,  # keep q1 put: compared at `location`
            ),
            seed=5,
            initial_objects={i: table.location_of(i) for i in range(12)},
            initial_queries={1: (location, 3)},
        )
        for batch in engine.batches(4):
            apply_batch(network, table, batch.normalized())
            report = oracle.process_batch(batch)
            assert report.timestamp == batch.timestamp
            fresh = brute_force_knn(network, table, location, 3)
            assert list(oracle.result_of(1).neighbors) == fresh

    def test_radius_infinite_when_fewer_than_k(self, small_world):
        network, table, edges = small_world
        oracle = OracleMonitor(network, table)
        result = oracle.register_query(9, NetworkLocation(edges[0], 0.1), 50)
        assert result.radius == float("inf")
        assert len(result.neighbors) == 12


class TestScenarioEngine:
    def test_same_seed_same_stream(self):
        network = city_network(80, seed=2)
        streams = []
        for _ in range(2):
            engine = ScenarioEngine(network, "mixed-stress", seed=123)
            streams.append([
                (
                    tuple(batch.object_updates),
                    tuple(batch.query_updates),
                    tuple(batch.edge_updates),
                )
                for batch in engine.batches()
            ])
        assert streams[0] == streams[1]

    def test_different_seeds_differ(self):
        network = city_network(80, seed=2)
        first = list(ScenarioEngine(network, "mixed-stress", seed=1).batches())
        second = list(ScenarioEngine(network, "mixed-stress", seed=2).batches())
        assert any(
            tuple(a.object_updates) != tuple(b.object_updates)
            for a, b in zip(first, second)
        )

    def test_materialized_stream_has_consistent_edge_weights(self):
        """old_weight chains correctly even when batches are pre-generated."""
        network = city_network(80, seed=2)
        engine = ScenarioEngine(network, "weight-storm", seed=9)
        batches = list(engine.batches(6))
        last_seen = {}
        for batch in batches:
            for update in batch.edge_updates:
                if update.edge_id in last_seen:
                    assert update.old_weight == last_seen[update.edge_id]
                assert update.new_weight > 0
                last_seen[update.edge_id] = update.new_weight

    def test_presets_resolve_and_unknown_rejected(self):
        for name, spec in SCENARIO_PRESETS.items():
            assert resolve_scenario(name) is spec
        spec = ScenarioSpec(name="custom")
        assert resolve_scenario(spec) is spec
        with pytest.raises(SimulationError):
            resolve_scenario("no-such-scenario")

    def test_unknown_panel_names_rejected(self):
        # ``-native`` once picked a second settle engine; there is one now.
        for name in ("IMA-native", "IMA-csr", "XYZ"):
            with pytest.raises(SimulationError, match="unknown differential algorithm"):
                run_differential_scenario("uniform-drift", seed=1, algorithms=(name,))

    def test_registries_track_churn(self):
        network = city_network(80, seed=6)
        engine = ScenarioEngine(network, "churn-heavy", seed=3)
        initial = set(engine.initial_objects())
        for _ in engine.batches():
            pass
        assert set(engine.initial_objects()) == initial  # snapshot frozen
        for location in engine.live_objects().values():
            network.validate_location(location)
        for location, spec in engine.live_queries().values():
            network.validate_location(location)
            assert spec.k >= 1


class TestSimulatorScenarioWiring:
    def test_run_scenario_validates_against_oracle(self):
        config = WorkloadConfig(
            num_objects=120, num_queries=10, k=3, network_edges=120,
            timestamps=3, seed=11,
        )
        result = Simulator(config).run_scenario(
            "hotspot", algorithms=("IMA", "GMA"), validate=True, oracle=True
        )
        assert result.validated
        assert result.validation_mismatches == 0
        assert result.config_description["scenario"] == "hotspot"
        for metrics in result.metrics.values():
            assert len(metrics.seconds_per_timestamp) == SCENARIO_PRESETS["hotspot"].timestamps

    def test_run_scenario_rejects_vacuous_validation(self):
        config = WorkloadConfig(
            num_objects=30, num_queries=3, k=2, network_edges=80,
            timestamps=1, seed=5,
        )
        with pytest.raises(SimulationError):
            Simulator(config).run_scenario(
                "uniform-drift", algorithms=("IMA",), validate=True
            )
        with pytest.raises(SimulationError):
            Simulator(config).run_scenario("uniform-drift", oracle=True)

    def test_scenario_engine_adopts_simulator_state(self):
        config = WorkloadConfig(
            num_objects=50, num_queries=5, k=2, network_edges=100,
            timestamps=2, seed=7,
        )
        simulator = Simulator(config)
        engine = simulator.scenario_engine("uniform-drift", seed=4)
        assert engine.initial_objects() == simulator.object_locations()
        assert set(engine.initial_queries()) == set(simulator.query_locations())
