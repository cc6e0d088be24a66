"""Verification harness: brute-force oracle + scenario workload fuzzing.

This package is the correctness backbone the optimisation work leans on:

* :class:`~repro.testing.oracle.OracleMonitor` — a monitor that recomputes
  every query's k-NN set from scratch at every timestamp with the plain
  Dijkstra oracle of :mod:`repro.network.distance`.  It shares none of the
  expansion / influence machinery of OVH, IMA and GMA, so agreement with it
  is independent evidence of correctness.
* :class:`~repro.testing.scenarios.ScenarioEngine` — a seeded generator
  composing diverse workload stressors (object churn, edge-weight storms,
  query teleports, hotspot clustering, mass arrivals / departures) into
  reproducible :class:`~repro.core.events.UpdateBatch` streams, with the
  named presets of :data:`~repro.testing.scenarios.SCENARIO_PRESETS`.
* :func:`~repro.testing.harness.run_differential_scenario` — runs the
  monitoring algorithms (on any registered kernel) in
  lock-step over a scenario and compares every result of every tick against
  the oracle, reporting a one-command replay line on mismatch.
"""

from repro.utils import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.testing.harness": (
            "DifferentialReport",
            "replay_command",
            "run_differential_log",
            "run_differential_scenario",
        ),
        "repro.testing.oracle": ("OracleMonitor",),
        "repro.testing.scenarios": (
            "MIXED_QUERY_MIX",
            "SCENARIO_PRESETS",
            "ScenarioEngine",
            "ScenarioSpec",
            "resolve_scenario",
        ),
    },
)
