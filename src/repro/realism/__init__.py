"""City-scale realism: road-map import, synthetic cities, rush-hour traffic.

Everything the monitoring stack needs to be exercised against *realistic*
city workloads instead of uniform synthetic grids:

* :mod:`repro.realism.importer` — an OSM-style nodes/ways text importer
  (largest-connected-component extraction, parallel-edge dedup, speed-class
  to weight mapping) plus a deterministic synthetic-city generator that
  emits the same text format, so the importer sits on the path of every
  generated network too;
* :mod:`repro.realism.traffic` — a rush-hour traffic model producing
  per-tick edge-weight update batches: time-of-day congestion waves by
  speed class, Poisson incident storms with decay, and road closures
  (effectively-infinite weights) that later reopen.

Both are deterministic from ``(spec, seed)`` and plug into the scenario /
benchmark harnesses (the ``rush-hour`` and ``gridlock-closures`` presets,
``benchmarks/bench_city_scale.py``).
"""

from repro.utils import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.realism.importer": (
            "SPEED_CLASSES",
            "Way",
            "ParsedWays",
            "ImportStats",
            "ImportResult",
            "parse_ways_text",
            "import_ways_text",
            "import_parsed",
            "import_road_network",
            "CitySpec",
            "synthetic_city_text",
            "synthetic_city_network",
        ),
        "repro.realism.traffic": ("RushHourSpec", "RushHourModel", "classify_edges"),
    },
)
