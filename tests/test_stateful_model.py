"""Stateful model-based testing of the monitoring servers.

A hypothesis :class:`RuleBasedStateMachine` drives IMA and GMA
:class:`~repro.core.server.MonitoringServer` instances — each over its own
network replica, through the production ``apply_updates`` + ``tick``
pipeline — with randomly interleaved object adds/moves/removes, query
installs/moves/terminations (all three query types: k-NN, fixed-radius
range, aggregate k-NN), edge-weight updates, same-tick remove+add
collapses, and duplicate installs at an existing query's exact spot (which
exercise the :class:`~repro.core.dedup.DedupFrontend`-wrapped server's
group sharing).  After every tick each live query's distance profile on
every server must match the independent brute-force
:class:`~repro.testing.oracle.OracleMonitor`.

Unlike the scenario fuzz suite (which samples from preset stressor
distributions), hypothesis *searches* the update-interleaving space and
shrinks failures to minimal reproducible sequences.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.events import (
    EdgeWeightUpdate,
    ObjectUpdate,
    QueryUpdate,
    UpdateBatch,
    apply_batch,
)
from repro.core.dedup import DedupFrontend
from repro.core.queries import QuerySpec
from repro.core.results import results_equal
from repro.core.server import MonitoringServer
from repro.network.builders import city_network
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation
from repro.testing.oracle import OracleMonitor

#: Network size: small enough for the brute-force oracle per tick, large
#: enough for multi-sequence GMA grouping and non-trivial trees.
NETWORK_EDGES = 60
NETWORK_SEED = 1709


def _spec_strategy(mean_weight: float) -> st.SearchStrategy:
    """A strategy over all three query kinds, scaled to the network."""
    knn = st.integers(min_value=1, max_value=4).map(QuerySpec.knn)
    range_ = st.floats(
        min_value=0.5, max_value=6.0, allow_nan=False, allow_infinity=False
    ).map(lambda factor: QuerySpec.range(factor * mean_weight))
    return st.one_of(knn, range_, st.just("aggregate"))


class MonitoringModel(RuleBasedStateMachine):
    """Model state: live objects and queries; system: servers + oracle."""

    def __init__(self) -> None:
        super().__init__()
        base = city_network(NETWORK_EDGES, seed=NETWORK_SEED)
        self.edges = sorted(base.edge_ids())
        self.mean_weight = sum(
            base.edge(edge_id).weight for edge_id in self.edges
        ) / len(self.edges)
        self.oracle_network = base
        self.oracle_table = EdgeTable(base, build_spatial_index=False)
        self.oracle = OracleMonitor(self.oracle_network, self.oracle_table)
        self.servers = {}
        for algorithm in ("ima", "gma"):
            replica = base.copy()
            self.servers[algorithm] = MonitoringServer(
                replica,
                algorithm=algorithm,
                edge_table=EdgeTable(replica, build_spatial_index=False),
            )
        # A dedup-wrapped IMA server rides the identical stream: its
        # logical-id surface must be indistinguishable from a plain server
        # even as duplicate_install grows and remove_query shrinks groups.
        replica = base.copy()
        self.servers["ima-dedup"] = DedupFrontend(
            MonitoringServer(
                replica,
                algorithm="ima",
                edge_table=EdgeTable(replica, build_spatial_index=False),
            )
        )
        self.objects = {}
        self.queries = {}
        self.weights = {
            edge_id: base.edge(edge_id).weight for edge_id in self.edges
        }
        self.batch = UpdateBatch()
        self.next_object_id = 0
        self.next_query_id = 1_000_000

    # ------------------------------------------------------------------
    # strategies over the model state
    # ------------------------------------------------------------------
    def _location(self, draw) -> NetworkLocation:
        edge_id = draw(st.sampled_from(self.edges))
        fraction = draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        )
        return NetworkLocation(edge_id, fraction)

    def _draw_spec(self, draw) -> QuerySpec:
        spec = draw(_spec_strategy(self.mean_weight))
        if spec == "aggregate":
            k = draw(st.integers(min_value=1, max_value=3))
            count = draw(st.integers(min_value=0, max_value=2))
            points = tuple(self._location(draw) for _ in range(count))
            agg = draw(st.sampled_from(("sum", "max")))
            return QuerySpec.aggregate_knn(k, points, agg)
        return spec

    # ------------------------------------------------------------------
    # rules: mutate the pending batch and the model
    # ------------------------------------------------------------------
    @initialize(data=st.data())
    def seed_population(self, data):
        """Start from a small seeded population so early ticks are non-trivial."""
        for _ in range(data.draw(st.integers(min_value=2, max_value=8))):
            self.add_object(data)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            self.add_query(data)

    @rule(data=st.data())
    def add_object(self, data):
        object_id = self.next_object_id
        self.next_object_id += 1
        location = self._location(data.draw)
        self.objects[object_id] = location
        self.batch.object_updates.append(ObjectUpdate(object_id, None, location))

    @precondition(lambda self: self.objects)
    @rule(data=st.data())
    def move_object(self, data):
        object_id = data.draw(st.sampled_from(sorted(self.objects)))
        location = self._location(data.draw)
        self.batch.object_updates.append(
            ObjectUpdate(object_id, self.objects[object_id], location)
        )
        self.objects[object_id] = location

    @precondition(lambda self: self.objects)
    @rule(data=st.data())
    def remove_object(self, data):
        object_id = data.draw(st.sampled_from(sorted(self.objects)))
        self.batch.object_updates.append(
            ObjectUpdate(object_id, self.objects.pop(object_id), None)
        )

    @rule(data=st.data())
    def flicker_object(self, data):
        """Appear and disappear within the same tick (a net no-op)."""
        object_id = self.next_object_id
        self.next_object_id += 1
        location = self._location(data.draw)
        self.batch.object_updates.append(ObjectUpdate(object_id, None, location))
        self.batch.object_updates.append(ObjectUpdate(object_id, location, None))

    @rule(data=st.data())
    def add_query(self, data):
        query_id = self.next_query_id
        self.next_query_id += 1
        location = self._location(data.draw)
        spec = self._draw_spec(data.draw)
        self.queries[query_id] = (location, spec)
        self.batch.query_updates.append(QueryUpdate(query_id, None, location, spec))

    @precondition(lambda self: self.queries)
    @rule(data=st.data())
    def move_query(self, data):
        query_id = data.draw(st.sampled_from(sorted(self.queries)))
        old_location, spec = self.queries[query_id]
        location = self._location(data.draw)
        self.batch.query_updates.append(
            QueryUpdate(query_id, old_location, location)
        )
        self.queries[query_id] = (location, spec)

    @precondition(lambda self: self.queries)
    @rule(data=st.data())
    def remove_query(self, data):
        query_id = data.draw(st.sampled_from(sorted(self.queries)))
        old_location, _ = self.queries.pop(query_id)
        self.batch.query_updates.append(QueryUpdate(query_id, old_location, None))

    @precondition(lambda self: self.queries)
    @rule(data=st.data(), keep_spec=st.booleans())
    def replace_query(self, data, keep_spec):
        """Same-tick remove+add of one id (the Section 4.5 collapse).

        With ``keep_spec`` the reinstall keeps the query type and
        parameters (collapses to a movement on the incremental path);
        otherwise it may change both (split back into terminate+install).
        """
        query_id = data.draw(st.sampled_from(sorted(self.queries)))
        old_location, old_spec = self.queries[query_id]
        self.batch.query_updates.append(QueryUpdate(query_id, old_location, None))
        location = self._location(data.draw)
        spec = old_spec if keep_spec else self._draw_spec(data.draw)
        self.batch.query_updates.append(QueryUpdate(query_id, None, location, spec))
        self.queries[query_id] = (location, spec)

    @precondition(lambda self: self.queries)
    @rule(data=st.data())
    def duplicate_install(self, data):
        """Install a new tenant at an existing query's exact spot and spec.

        Plain servers see an independent query; the dedup server instead
        joins (or forms) a shared group — the per-tick diff then checks the
        fanned-out result against both the oracle and the plain answers.
        """
        template = data.draw(st.sampled_from(sorted(self.queries)))
        location, spec = self.queries[template]
        query_id = self.next_query_id
        self.next_query_id += 1
        self.queries[query_id] = (location, spec)
        self.batch.query_updates.append(QueryUpdate(query_id, None, location, spec))

    @rule(data=st.data())
    def update_weight(self, data):
        edge_id = data.draw(st.sampled_from(self.edges))
        factor = data.draw(
            st.floats(min_value=0.5, max_value=1.8, allow_nan=False)
        )
        old_weight = self.weights[edge_id]
        new_weight = max(old_weight * factor, 1e-9)
        if new_weight == old_weight:
            return
        self.weights[edge_id] = new_weight
        self.batch.edge_updates.append(
            EdgeWeightUpdate(edge_id, old_weight, new_weight)
        )

    # ------------------------------------------------------------------
    # the checked step
    # ------------------------------------------------------------------
    @rule()
    def tick(self):
        """Apply the pending batch everywhere and diff against the oracle."""
        batch = self.batch
        self.batch = UpdateBatch()
        for server in self.servers.values():
            server.apply_updates(batch)
            server.tick()
        apply_batch(self.oracle_network, self.oracle_table, batch.normalized())
        self.oracle.process_batch(batch)
        for query_id in sorted(self.queries):
            truth = list(self.oracle.result_of(query_id).neighbors)
            for algorithm, server in self.servers.items():
                answer = list(server.result_of(query_id).neighbors)
                assert results_equal(truth, answer), (
                    f"{algorithm} q={query_id}: "
                    f"expected {truth} got {answer}"
                )

    def teardown(self):
        """Flush one final tick so trailing updates are also verified."""
        self.tick()


def test_stateful_model_matches_oracle():
    """IMA/GMA servers track the oracle under arbitrary update interleavings."""
    run_state_machine_as_test(
        MonitoringModel,
        settings=settings(
            max_examples=20,
            stateful_step_count=30,
            deadline=None,
            print_blob=True,
        ),
    )
