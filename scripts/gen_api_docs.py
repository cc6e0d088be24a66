#!/usr/bin/env python3
"""Generate docs/api.md from the docstrings of the public API.

Walks every symbol exported from :mod:`repro` (the package ``__all__``),
captures its signature and docstring, and renders one markdown page grouped
by subsystem.  Stdlib-only, so the reference can be rebuilt anywhere the
package imports.

Usage::

    python scripts/gen_api_docs.py           # rewrite docs/api.md
    python scripts/gen_api_docs.py --check   # fail if docs/api.md is stale

The ``--check`` form runs in CI (the docs-build job) so the committed page
can never drift from the docstrings.
"""

from __future__ import annotations

import inspect
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402  (path set up above)

OUTPUT = REPO_ROOT / "docs" / "api.md"

#: Page structure: (section title, blurb, exported names).
SECTIONS = (
    (
        "Servers and sharding",
        "The user-facing entry points: the monitoring server facade, its "
        "multi-process sharded variant, the query-to-shard router, and the "
        "multi-tenant dedup layer that wraps either server.",
        (
            "MonitoringServer",
            "ShardedMonitoringServer",
            "shard_of",
            "DedupFrontend",
            "DedupStats",
        ),
    ),
    (
        "Monitoring algorithms",
        "The paper's three algorithms behind one abstract interface, plus "
        "the per-tick report they produce.",
        (
            "MonitorBase",
            "OvhMonitor",
            "ImaMonitor",
            "GmaMonitor",
            "TimestepReport",
            "KnnResult",
            "ALGORITHMS",
        ),
    ),
    (
        "Query types",
        "The QuerySpec abstraction behind every `k` parameter: classic "
        "k-NN, fixed-radius range monitoring, and aggregate k-NN over "
        "several points, plus the normalization helper.",
        (
            "QuerySpec",
            "knn",
            "range_query",
            "aggregate_knn",
            "as_query_spec",
            "evaluate_aggregates",
        ),
    ),
    (
        "Updates and events",
        "The three update streams of Section 3 and the batch container "
        "with its Section 4.5 normalization.",
        (
            "UpdateBatch",
            "ObjectUpdate",
            "QueryUpdate",
            "EdgeWeightUpdate",
            "apply_batch",
            "encode_batch",
            "decode_batch",
        ),
    ),
    (
        "Durable streaming service",
        "The always-on front-end: a socket service with watch-mode delta "
        "pushes, write-ahead event logging with checkpoint/replay crash "
        "recovery, snapshot/restore of whole servers, and the kill -9 "
        "fault-injection driver that proves recovery is byte-identical.",
        (
            "StreamingService",
            "ServiceClient",
            "DurableMonitoringServer",
            "EventLog",
            "read_event_log",
            "load_initial_state",
            "restore_server",
            "run_fault_injection",
        ),
    ),
    (
        "Search kernels",
        "The Figure-2 network expansion over the flat-array CSR snapshot, "
        "the batched entry point every monitor tick flushes through, the "
        "kernel registry that names and validates its two settle "
        "engines (csr, native), and the work counters they report.",
        (
            "expand_knn",
            "expand_knn_batch",
            "ExpansionRequest",
            "SearchCounters",
            "KernelSpec",
            "registered_kernels",
            "available_kernels",
            "resolve_kernel",
            "native_available",
            "UnknownKernelError",
        ),
    ),
    (
        "Road network substrate",
        "Graph model, CSR snapshot, edge table, builders and distances.",
        (
            "RoadNetwork",
            "NetworkLocation",
            "EdgeTable",
            "CSRGraph",
            "csr_snapshot",
            "SequenceTable",
            "city_network",
            "grid_network",
            "linear_network",
            "network_distance",
            "brute_force_knn",
            "brute_force_range",
            "brute_force_aggregate_knn",
            "load_network",
            "save_network",
            "CLOSED_EDGE_WEIGHT",
        ),
    ),
    (
        "City-scale realism",
        "The OSM-style nodes/ways importer (largest-component extraction, "
        "parallel-edge dedup, speed-class weights), the deterministic "
        "synthetic-city generator that feeds it, and the rush-hour traffic "
        "model behind the `rush-hour` / `gridlock-closures` presets.",
        (
            "import_road_network",
            "import_ways_text",
            "ImportResult",
            "ImportStats",
            "CitySpec",
            "synthetic_city_text",
            "synthetic_city_network",
            "RushHourSpec",
            "RushHourModel",
            "classify_edges",
        ),
    ),
    (
        "Spatial primitives",
        "Geometry types and the PMR quadtree that snaps raw coordinates "
        "onto network edges.",
        ("Point", "Rect", "Segment", "PMRQuadtree"),
    ),
    (
        "Testing and verification",
        "The brute-force oracle, the scenario fuzz engine, and the "
        "oracle-backed differential harness.",
        (
            "OracleMonitor",
            "ScenarioEngine",
            "ScenarioSpec",
            "SCENARIO_PRESETS",
            "run_differential_scenario",
            "run_differential_log",
        ),
    ),
    (
        "Errors",
        "Every library exception derives from one root type.  A server's "
        "network has a fixed topology: editing it raises TopologyFrozenError.",
        ("ReproError", "TopologyFrozenError"),
    ),
)


def _signature(obj) -> str:
    """A display signature, or '' for data exports."""
    try:
        if inspect.isclass(obj):
            # Go straight to __init__: a custom __new__ (e.g. the workers
            # dispatch on MonitoringServer) would otherwise hide the real
            # constructor parameters behind *args/**kwargs.
            init_signature = inspect.signature(obj.__init__)
            parameters = list(init_signature.parameters.values())[1:]  # drop self
            return str(init_signature.replace(parameters=parameters))
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def _render_symbol(name: str) -> str:
    obj = getattr(repro, name)
    lines = [f"### `{name}`", ""]
    if inspect.isclass(obj):
        lines.append(f"*class* — defined in `{obj.__module__}`")
    elif inspect.isfunction(obj):
        lines.append(f"*function* — defined in `{obj.__module__}`")
    else:
        lines.append(f"*data* — `{type(obj).__name__}`")
    lines.append("")
    signature = _signature(obj)
    if signature:
        lines.extend(["```python", f"{name}{signature}", "```", ""])
    doc = inspect.getdoc(obj) if (inspect.isclass(obj) or inspect.isfunction(obj)) else None
    if doc:
        # Docstrings use Sphinx roles and literal blocks; fencing them keeps
        # the markdown renderer from mangling anything.
        lines.extend(["```text", doc, "```", ""])
    return "\n".join(lines)


def build_page() -> str:
    """Render the whole API reference page."""
    exported = set(repro.__all__)
    covered = {name for _, _, names in SECTIONS for name in names}
    missing = sorted(exported - covered - {"__version__"})
    if missing:
        raise SystemExit(
            f"gen_api_docs.py: exports missing from SECTIONS: {missing} "
            "(add them so the reference stays complete)"
        )
    parts = [
        "# API reference",
        "",
        "Auto-generated from the package docstrings by "
        "`scripts/gen_api_docs.py`; do not edit by hand — run "
        "`python scripts/gen_api_docs.py` to refresh. Every symbol below is "
        "importable straight from `repro`.",
        "",
    ]
    for title, blurb, names in SECTIONS:
        parts.extend([f"## {title}", "", blurb, ""])
        for name in names:
            parts.append(_render_symbol(name))
    return "\n".join(parts).rstrip() + "\n"


def main(argv) -> int:
    """CLI entry point; see the module docstring."""
    page = build_page()
    if "--check" in argv:
        on_disk = OUTPUT.read_text(encoding="utf-8") if OUTPUT.exists() else ""
        if on_disk != page:
            sys.stderr.write(
                "docs/api.md is stale; run `python scripts/gen_api_docs.py`\n"
            )
            return 1
        print("docs/api.md is up to date")
        return 0
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(page, encoding="utf-8")
    print(f"wrote {OUTPUT} ({len(page.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
