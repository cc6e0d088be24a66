"""Docstring coverage guards for the public API.

Two layers:

* :func:`test_pydocstyle_missing_docstrings` mirrors the ruff pydocstyle
  rules enabled in ``pyproject.toml`` (D100-D103: module / public class /
  public method / public function docstrings) over the same module
  allowlist, so violations surface in a plain ``pytest`` run even where
  ruff is not installed.
* :func:`test_public_exports_have_examples` requires every class and
  function exported from ``repro`` (the package ``__all__``) to carry a
  docstring with an ``Example::`` block or doctest, which the generated
  API reference (``scripts/gen_api_docs.py``) renders.
"""

from __future__ import annotations

import ast
import inspect
import pathlib

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Modules under pydocstyle enforcement.  Keep in sync with the ruff
#: per-file-ignores in pyproject.toml (everything else ignores "D").
ENFORCED_MODULES = (
    "src/repro/__init__.py",
    "src/repro/exceptions.py",
    "src/repro/core/server.py",
    "src/repro/core/sharding.py",
    "src/repro/core/worker.py",
    "src/repro/core/base.py",
    "src/repro/core/dedup.py",
    "src/repro/core/events.py",
    "src/repro/core/queries.py",
    "src/repro/core/results.py",
    "src/repro/network/graph.py",
    "src/repro/network/csr.py",
    "src/repro/network/edge_table.py",
    "src/repro/realism/__init__.py",
    "src/repro/realism/importer.py",
    "src/repro/realism/traffic.py",
    "src/repro/service/eventlog.py",
    "src/repro/service/durable.py",
    "src/repro/testing/harness.py",
    "src/repro/testing/scenarios.py",
    "src/repro/testing/oracle.py",
)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _missing_docstrings(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    problems = []
    if not ast.get_docstring(tree):
        problems.append(f"{path}:1 D100 missing module docstring")

    def visit(node, in_public_scope: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                public = in_public_scope and not child.name.startswith("_")
                if public and not ast.get_docstring(child):
                    problems.append(
                        f"{path}:{child.lineno} D101 class {child.name}"
                    )
                visit(child, public)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # D102/D103; dunders are D105/D107, which are not enforced.
                public = (
                    in_public_scope
                    and not _is_dunder(child.name)
                    and not child.name.startswith("_")
                )
                if public and not ast.get_docstring(child):
                    problems.append(
                        f"{path}:{child.lineno} D102/D103 def {child.name}"
                    )
                visit(child, public)
    visit(tree, True)
    return problems


def test_pydocstyle_missing_docstrings():
    problems = []
    for module in ENFORCED_MODULES:
        problems.extend(_missing_docstrings(REPO_ROOT / module))
    assert not problems, "undocumented public symbols:\n" + "\n".join(problems)


def test_public_exports_have_examples():
    missing_doc, missing_example = [], []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue  # data exports (dicts, version string) carry no __doc__
        doc = inspect.getdoc(obj) or ""
        if not doc.strip():
            missing_doc.append(name)
        elif "Example::" not in doc and ">>>" not in doc:
            missing_example.append(name)
    assert not missing_doc, f"exports without docstrings: {missing_doc}"
    assert not missing_example, f"exports without examples: {missing_example}"
