"""Oracle differential coverage for the realism presets.

The fuzz suite already rotates the ``rush-hour`` / ``gridlock-closures``
presets through its seed matrix; this file pins the ISSUE-8 acceptance
matrix explicitly — IMA/GMA x every available kernel x 1/2 workers — with fixed
seeds so it runs deterministically in every plain pytest invocation.  The
closure preset drives the closed-road sentinel
(:data:`~repro.network.graph.CLOSED_EDGE_WEIGHT`) through the whole stack:
monitors, batched servers, sharded merge, and both kernels must agree with
the brute-force oracle byte-for-byte while edges close and reopen.

Also covers an imported synthetic city as the differential substrate, so
the importer output (not just ``city_network`` grids) is proven
monitoring-clean end to end.
"""

from __future__ import annotations

import pytest

from repro.realism import synthetic_city_network
from repro.testing.harness import DEFAULT_ALGORITHMS, run_differential_scenario

from kernel_legs import kernel_legs

PRESETS = ("rush-hour", "gridlock-closures")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kernel", kernel_legs())
@pytest.mark.parametrize("preset", PRESETS)
def test_realism_presets_match_oracle(preset, kernel, workers):
    """The acceptance matrix: preset x kernel x worker count vs the oracle."""
    report = run_differential_scenario(
        preset,
        seed=17 + workers,
        algorithms=(f"IMA-{kernel}", f"GMA-{kernel}"),
        workers=workers,
        server_kernel=kernel,
    )
    assert report.ok, report.failures[:3]


def test_gridlock_closures_on_imported_city():
    """Closures on an *imported* network: the realism pipeline end to end."""
    result = synthetic_city_network(target_edges=150, seed=5)
    report = run_differential_scenario(
        "gridlock-closures",
        seed=23,
        network=result.network,
        algorithms=DEFAULT_ALGORITHMS,
    )
    assert report.ok, report.failures[:3]


def test_rush_hour_mixed_query_types():
    """Range and aggregate queries also survive wave/incident streams."""
    report = run_differential_scenario(
        "rush-hour",
        seed=31,
        algorithms=("IMA", "GMA"),
        query_types="mixed",
    )
    assert report.ok, report.failures[:3]
