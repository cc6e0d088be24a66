"""Oracle-backed differential runs through the sharded server.

Every scenario preset is driven through two :class:`MonitoringServer`
instances — single-process and sharded — via the batched
``apply_updates`` + ``tick`` pipeline; both must match the brute-force
oracle at every timestamp and each other exactly (see
``run_differential_scenario(workers=...)``).

The worker count comes from ``SHARDED_WORKERS`` (CI runs a 1-vs-4 matrix in
the fuzz job; the default is 4) and the base seed rotates with
``FUZZ_BASE_SEED`` exactly like the main fuzz suite, so failures replay
with the same one-command recipe.
"""

from __future__ import annotations

import os

import pytest

from repro.testing import SCENARIO_PRESETS, run_differential_scenario

#: Rotating base seed, shared with tests/test_fuzz_differential.py.
BASE_SEED = int(os.environ.get("FUZZ_BASE_SEED", "20060912"))

#: Worker count of the sharded server under test (CI matrixes 1 vs 4).
WORKERS = int(os.environ.get("SHARDED_WORKERS", "4"))

#: Search kernel the servers run on (CI matrixes csr vs native).
KERNEL = os.environ.get("SHARDED_KERNEL", "csr")

#: Query-type overlay shared with the main fuzz suite (CI matrixes
#: default vs mixed): the sharded server must partition and merge every
#: query type, not just k-NN.
QUERY_TYPES = os.environ.get("FUZZ_QUERY_TYPES", "default")

#: Dedup overlay shared with the main fuzz suite (``FUZZ_DEDUP=1``): adds
#: DedupFrontend-wrapped single and sharded servers to every run, so the
#: canonical-id fanout is exercised across worker partitioning too.
DEDUP = os.environ.get("FUZZ_DEDUP", "0") == "1"

#: Partitioning of the sharded leg (CI matrixes replica vs graph):
#: ``graph`` adds a third server over network-partitioned region shards
#: that must stay byte-identical to the single-process reference outside
#: its own ``divergent_query_ids`` carve-out.
PARTITIONING = os.environ.get("SHARDED_PARTITIONING", "replica")


#: Spread per-scenario seeds apart, mirroring the main fuzz suite, so each
#: CI run exercises a different (query-id population, shard assignment)
#: point per preset instead of one shared seed.
_SEED_STRIDE = 99_991


@pytest.mark.parametrize(
    "index,scenario", list(enumerate(sorted(SCENARIO_PRESETS)))
)
def test_sharded_server_matches_oracle(index, scenario):
    """Sharded and single-process servers agree with the oracle every tick."""
    report = run_differential_scenario(
        scenario,
        seed=(BASE_SEED + 7_919 + index * _SEED_STRIDE) % 2_000_000_011,
        algorithms=(),  # the in-process monitor panel is covered elsewhere
        workers=WORKERS,
        server_kernel=KERNEL,
        query_types=QUERY_TYPES,
        dedup=DEDUP,
        partitioning=PARTITIONING,
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()


def test_sharded_server_matches_oracle_gma():
    """The grouped algorithm also survives query partitioning."""
    report = run_differential_scenario(
        "mixed-stress",
        seed=(BASE_SEED + 104_729) % 2_000_000_011,
        algorithms=(),
        workers=WORKERS,
        server_algorithm="gma",
        server_kernel=KERNEL,
        query_types=QUERY_TYPES,
        dedup=DEDUP,
        partitioning=PARTITIONING,
    )
    assert report.checks > 0
    assert report.ok, report.failure_message()
