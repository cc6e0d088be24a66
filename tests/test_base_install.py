"""Sharding on a base install: every server shape runs without numpy.

``pyproject.toml`` declares no runtime dependency; numpy is the optional
``fast`` extra.  The multi-process servers ship pickled network replicas
over pipes and each worker builds its own CSR snapshot, which must need
nothing beyond the stdlib.  The check runs in a subprocess that masks
numpy before anything imports it, so ``import numpy`` raises
``ImportError`` there exactly as on a base install.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import sys

sys.modules["numpy"] = None  # `import numpy` now raises ImportError

from repro.core.results import results_equal
from repro.core.server import MonitoringServer
from repro.network.builders import city_network
from repro.testing.scenarios import ScenarioEngine, resolve_scenario

network = city_network(160, seed=5)
spec = resolve_scenario("mixed-stress").with_overrides(timestamps=6)
engine = ScenarioEngine(network, spec, seed=11)
objects = engine.initial_objects()
queries = engine.initial_queries()
batches = list(engine.batches())


def run(**deployment):
    with MonitoringServer(network.copy(), algorithm="gma", **deployment) as server:
        for object_id, location in objects.items():
            server.add_object(object_id, location)
        for query_id, (location, query_spec) in queries.items():
            server.add_query(query_id, location, query_spec)
        server.tick()
        for batch in batches:
            server.apply_updates(batch)
            server.tick()
        divergent = getattr(server, "divergent_query_ids", frozenset)()
        return type(server).__name__, server.results(), divergent


_, expected, _ = run()
assert expected, "the scenario registered no queries"
for deployment in (
    {"workers": 2},
    {"workers": 2, "partitioning": "graph"},
):
    kind, results, divergent = run(**deployment)
    assert kind == "ShardedMonitoringServer", deployment
    assert results.keys() == expected.keys(), deployment
    for query_id, result in expected.items():
        # Escalated boundary queries may differ in the last ULP (the
        # documented graph-mode carve-out); every other one is identical.
        if query_id in divergent:
            assert results_equal(results[query_id].neighbors, result.neighbors)
        else:
            assert results[query_id] == result, (deployment, query_id)
assert sys.modules["numpy"] is None
print("ok")
"""


def test_sharded_servers_match_single_process_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
    assert result.stderr == ""
