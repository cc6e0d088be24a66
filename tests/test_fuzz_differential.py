"""Oracle-backed scenario fuzz suite.

Every preset of :data:`repro.testing.SCENARIO_PRESETS` is run under several
seeds (≥ 25 runs in total), with IMA and GMA compared against the brute-force
:class:`~repro.testing.oracle.OracleMonitor` at every timestamp: identical
distance profiles for every live query, and per-tick reports carrying the
correct timestamps.

The base seed rotates in CI (the workflow exports ``FUZZ_BASE_SEED`` from
the run id and uploads it on failure); locally it defaults to a fixed
value.  Any failure message embeds the exact one-command replay line, and
``test_replay_from_env`` re-runs a single scenario from the
``FUZZ_SCENARIO`` / ``FUZZ_SEED`` environment variables.
"""

from __future__ import annotations

import os

import pytest

from repro.testing import SCENARIO_PRESETS, run_differential_scenario
from repro.testing.harness import DEFAULT_ALGORITHMS

#: Rotating base seed: CI exports the workflow run id, local runs use a
#: fixed default so plain `pytest` stays deterministic.
BASE_SEED = int(os.environ.get("FUZZ_BASE_SEED", "20060912"))

#: Query-type matrix axis: ``FUZZ_QUERY_TYPES=mixed`` overlays the mixed
#: k-NN / range / aggregate query distribution on every preset.
FUZZ_QUERY_TYPES = os.environ.get("FUZZ_QUERY_TYPES", "default")

#: Dedup matrix axis: ``FUZZ_DEDUP=1`` drives
#: :class:`~repro.core.dedup.DedupFrontend`-wrapped servers next to a plain
#: reference server in every run (see ``run_differential_scenario``'s
#: ``dedup`` flag for the byte-identity contract).
FUZZ_DEDUP = os.environ.get("FUZZ_DEDUP", "0") == "1"

#: Partitioning matrix axis: ``FUZZ_PARTITIONING=graph`` adds a sharded
#: leg over network-partitioned region shards next to the replica leg in
#: server-driving runs (see ``run_differential_scenario``'s
#: ``partitioning`` flag for the byte-identity contract).
FUZZ_PARTITIONING = os.environ.get("FUZZ_PARTITIONING", "replica")

#: Seeds per preset; 9 presets x 4 seeds = 36 differential runs (>= 25).
SEEDS_PER_PRESET = 4

#: Spread the per-preset seeds far apart so neighboring CI runs (run ids
#: increment by small steps) still cover distinct streams.
_SEED_STRIDE = 99_991


def _seed(offset: int) -> int:
    return (BASE_SEED + offset * _SEED_STRIDE) % 2_000_000_011


@pytest.mark.parametrize("scenario", sorted(SCENARIO_PRESETS))
@pytest.mark.parametrize("offset", range(SEEDS_PER_PRESET))
def test_scenarios_match_oracle(scenario, offset):
    """IMA/GMA exactly match the oracle on every tick."""
    seed = _seed(offset)
    report = run_differential_scenario(
        scenario,
        seed=seed,
        algorithms=DEFAULT_ALGORITHMS,
        query_types=FUZZ_QUERY_TYPES,
        dedup=FUZZ_DEDUP,
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


def test_replay_from_env():
    """Replay a single failing scenario: FUZZ_SCENARIO=<name> FUZZ_SEED=<n>.

    Skipped unless both environment variables are set (this is the target
    of the replay command embedded in fuzz failure messages).  Sharded
    failures additionally set ``FUZZ_WORKERS`` (and, when not IMA,
    ``FUZZ_SERVER_ALGORITHM``) so the same servers are reconstructed.
    """
    scenario = os.environ.get("FUZZ_SCENARIO")
    seed = os.environ.get("FUZZ_SEED")
    if not scenario or not seed:
        pytest.skip("set FUZZ_SCENARIO and FUZZ_SEED to replay a fuzz failure")
    workers = os.environ.get("FUZZ_WORKERS")
    report = run_differential_scenario(
        scenario,
        seed=int(seed),
        algorithms=DEFAULT_ALGORITHMS,
        workers=int(workers) if workers else None,
        server_algorithm=os.environ.get("FUZZ_SERVER_ALGORITHM", "ima"),
        query_types=FUZZ_QUERY_TYPES,
        dedup=FUZZ_DEDUP,
        partitioning=FUZZ_PARTITIONING if workers else "replica",
    )
    assert report.ok, report.failure_message(limit=50)


def test_failure_report_carries_replay_command():
    """The report's failure message points at the env-driven replay test."""
    report = run_differential_scenario("uniform-drift", seed=_seed(0), timestamps=2)
    report.mismatches.append("t=0 IMA q=1000000: synthetic mismatch")
    message = report.failure_message()
    assert "FUZZ_SCENARIO=uniform-drift" in message
    assert f"FUZZ_SEED={_seed(0)}" in message
    assert "test_replay_from_env" in message
    assert "FUZZ_WORKERS" not in message  # no servers were driven


def test_sharded_failure_report_carries_workers():
    """Sharded-run reports embed the worker count so divergences reproduce."""
    report = run_differential_scenario(
        "uniform-drift",
        seed=_seed(1),
        algorithms=(),
        workers=2,
        server_algorithm="gma",
        timestamps=1,
    )
    report.mismatches.append("t=0 GMA-server-x2 q=1000000: synthetic mismatch")
    message = report.failure_message()
    assert "FUZZ_WORKERS=2" in message
    assert "FUZZ_SERVER_ALGORITHM=gma" in message


def test_graph_partitioned_failure_report_carries_axis():
    """Graph-partitioned reports embed FUZZ_PARTITIONING so they reproduce."""
    report = run_differential_scenario(
        "uniform-drift",
        seed=_seed(3),
        algorithms=(),
        workers=2,
        partitioning="graph",
        timestamps=1,
    )
    report.mismatches.append(
        "t=0 IMA-server-graph-x2 q=1000000: synthetic mismatch"
    )
    message = report.failure_message()
    assert "FUZZ_WORKERS=2" in message
    assert "FUZZ_PARTITIONING=graph" in message
    assert "test_replay_from_env" in message


def test_dedup_failure_report_carries_flag():
    """Dedup-run reports embed FUZZ_DEDUP=1 so divergences reproduce."""
    report = run_differential_scenario(
        "uniform-drift", seed=_seed(2), algorithms=(), dedup=True, timestamps=1
    )
    report.mismatches.append("t=0 IMA-dedup-single q=1000000: synthetic mismatch")
    message = report.failure_message()
    assert "FUZZ_DEDUP=1" in message
    assert "test_replay_from_env" in message
