"""The kernel registry: names, capability flags, validation, enforcement.

:mod:`repro.network.kernels` is the single home of the kernel-name string
literals; everything else resolves names through it.  These tests pin the
registry's contents, the typed :class:`UnknownKernelError` every entry
point raises at construction, and — via an AST sweep over the package —
the invariant that no bare kernel-name literal survives anywhere else in
``src/repro``.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.exceptions import MonitoringError, UnknownKernelError
from repro.network.builders import city_network
from repro.network.edge_table import EdgeTable
from repro.network.kernels import (
    DEFAULT_KERNEL,
    KERNEL_CSR,
    KERNEL_NATIVE,
    available_kernels,
    registered_kernels,
    resolve_kernel,
    validate_kernel,
)
from repro.network.native import native_available


@pytest.fixture(scope="module")
def small_world():
    network = city_network(80, seed=11)
    return network, EdgeTable(network, build_spatial_index=False)


# ---------------------------------------------------------------------------
# registry contents
# ---------------------------------------------------------------------------
def test_registered_kernels_names_every_engine():
    assert registered_kernels() == (KERNEL_CSR, KERNEL_NATIVE) == ("csr", "native")


def test_available_kernels_subset_tracks_native_probe():
    available = available_kernels()
    assert set(available) <= set(registered_kernels())
    assert KERNEL_CSR in available
    assert (KERNEL_NATIVE in available) == native_available()


def test_one_default_for_monitors_and_batch_entry_point():
    import inspect

    from repro.core.search import expand_knn_batch

    assert resolve_kernel(DEFAULT_KERNEL).name == KERNEL_CSR
    signature = inspect.signature(expand_knn_batch)
    assert signature.parameters["kernel"].default == DEFAULT_KERNEL


def test_capability_flags():
    assert not resolve_kernel(KERNEL_CSR).compiled
    assert resolve_kernel(KERNEL_NATIVE).compiled
    # The name picks the settle engine and nothing else: no flag remains
    # for a monitor to branch on.
    assert not hasattr(resolve_kernel(KERNEL_NATIVE), "batch")
    assert not hasattr(resolve_kernel(KERNEL_NATIVE), "shared_memory")
    for name in registered_kernels():
        spec = resolve_kernel(name)
        assert spec.name == name and spec.description
    assert resolve_kernel(KERNEL_CSR).available  # the fallback always runs
    assert "falls back to csr" in resolve_kernel(KERNEL_NATIVE).description


def test_validate_kernel_round_trips():
    for name in registered_kernels():
        assert validate_kernel(name) == name


# ---------------------------------------------------------------------------
# typed rejection
# ---------------------------------------------------------------------------
def test_unknown_kernel_error_carries_choices():
    with pytest.raises(UnknownKernelError) as excinfo:
        resolve_kernel("simd")
    err = excinfo.value
    assert err.kernel == "simd"
    assert err.choices == registered_kernels()
    for name in registered_kernels():
        assert repr(name) in str(err)
    assert isinstance(err, MonitoringError)  # old except-clauses keep working


@pytest.mark.parametrize("algorithm", ["ovh", "ima", "gma"])
def test_monitors_reject_unknown_kernel_at_construction(small_world, algorithm):
    from repro.core.server import ALGORITHMS

    network, table = small_world
    with pytest.raises(UnknownKernelError):
        ALGORITHMS[algorithm](network, table, kernel="dial")


def test_server_and_simulator_reject_unknown_kernel_at_construction(small_world):
    from repro.sim.simulator import Simulator
    from repro.sim.workload import WorkloadConfig

    network, table = small_world
    with pytest.raises(UnknownKernelError):
        repro.MonitoringServer(network, "ima", edge_table=table, kernel="nativ")
    simulator = Simulator(
        WorkloadConfig(num_objects=10, num_queries=2, network_edges=120)
    )
    with pytest.raises(UnknownKernelError):
        simulator.make_server(kernel="nativ")


def test_server_validates_even_with_prebuilt_monitor(small_world):
    # kernel= is ignored for monitor instances, but a typo still fails fast.
    network, table = small_world
    monitor = repro.ImaMonitor(network, table)
    with pytest.raises(UnknownKernelError):
        repro.MonitoringServer(network, monitor, edge_table=table, kernel="oops")


def test_evaluate_aggregate_rejects_unknown_kernel(small_world):
    from repro.core.queries import QuerySpec, evaluate_aggregate
    from repro.network.graph import NetworkLocation

    network, table = small_world
    edge_id = next(iter(network.edge_ids()))
    with pytest.raises(UnknownKernelError):
        evaluate_aggregate(
            network,
            table,
            NetworkLocation(edge_id, 0.5),
            QuerySpec.knn(1),
            kernel="quantum",
        )


def test_expand_knn_batch_rejects_unknown_kernel(small_world):
    # The one place monitors forward kernel names to: a typo must not
    # silently run on the default engine.
    from repro.core.search import ExpansionRequest, expand_knn_batch
    from repro.network.graph import NetworkLocation

    network, table = small_world
    edge_id = next(iter(network.edge_ids()))
    request = ExpansionRequest(k=1, query_location=NetworkLocation(edge_id, 0.5))
    with pytest.raises(UnknownKernelError):
        expand_knn_batch(network, table, [request], kernel="dail")


def test_top_level_exports():
    assert repro.registered_kernels is registered_kernels
    assert repro.available_kernels is available_kernels
    assert repro.resolve_kernel is resolve_kernel
    assert repro.native_available is native_available
    assert repro.UnknownKernelError is UnknownKernelError
    assert "KernelSpec" in repro.__all__


# ---------------------------------------------------------------------------
# single-home enforcement: no bare kernel literals outside the registry
# ---------------------------------------------------------------------------
def _docstring_ids(tree: ast.AST) -> set:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            body = getattr(node, "body", [])
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                ids.add(id(body[0].value))
    return ids


def test_no_bare_kernel_literals_outside_registry():
    """Every ``src/repro`` module resolves kernel names through the registry.

    Docstrings are exempt (prose and examples legitimately spell the
    names); everything else — defaults, comparisons, dispatch tables —
    must use the ``KERNEL_*`` constants so a grep for ``"native"`` in code
    hits exactly one module.
    """
    names = set(registered_kernels())
    package_root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        if relative == "network/kernels.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = _docstring_ids(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in names
                and id(node) not in docstrings
            ):
                offenders.append(f"{relative}:{node.lineno}: {node.value!r}")
    assert not offenders, (
        "bare kernel-name literals outside repro.network.kernels:\n  "
        + "\n  ".join(offenders)
    )


#: The retired bucket-queue kernel's module, as dotted-name parts.
_RETIRED_MODULE = ("repro", "network", "dial")


def _imported_names(tree: ast.AST):
    """Dotted-name parts of every module (or member) *tree* imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield tuple(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = tuple(node.module.split("."))
            yield module
            for alias in node.names:
                yield module + (alias.name,)


def test_nothing_imports_the_retired_kernel_module():
    """Two engines remain: no code imports the deleted bucket-queue module."""
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    e2e = repo_root / "benchmarks" / "e2e"
    offenders = []
    for top in ("src", "tests", "scripts", "benchmarks"):
        for path in sorted((repo_root / top).rglob("*.py")):
            if e2e in path.parents:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if any(
                parts[: len(_RETIRED_MODULE)] == _RETIRED_MODULE
                for parts in _imported_names(tree)
            ):
                offenders.append(path.relative_to(repo_root).as_posix())
    assert not offenders, offenders
    assert not (repo_root / "src" / "repro" / "network" / "dial.py").exists()


def test_monitors_never_branch_on_the_kernel():
    """One monitor path: ``kernel=`` is forwarded, never tested.

    No ``if`` / conditional expression in the monitors or the aggregate
    entry points may mention a kernel name, a ``KERNEL_*`` constant or a
    :class:`KernelSpec` lookup — the name selects only the settle engine
    inside :func:`~repro.core.search.expand_knn_batch`.
    """
    package_root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for relative in ("base", "ima", "gma", "ovh", "queries"):
        path = package_root / "core" / f"{relative}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.If, ast.IfExp, ast.While)):
                continue
            for leaf in ast.walk(node.test):
                name = getattr(leaf, "id", None) or getattr(leaf, "attr", None)
                if name and ("kernel" in name.lower() or name == "engine"):
                    offenders.append(f"core/{relative}.py:{node.lineno}: {name}")
    assert not offenders, "\n".join(offenders)
