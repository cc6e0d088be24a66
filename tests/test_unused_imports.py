"""Unused-import guard: ruff's F401 where ruff is not installed.

CI's lint job runs ``ruff check src tests benchmarks examples scripts
conftest.py``; this test runs the one rule of that job that most often
catches a change, F401 (an import nothing uses), over the same paths in a
plain ``pytest`` run, as ``tests/test_docstring_coverage.py`` does for
D100-D103.  Like ruff with this repository's settings it skips the
``__init__.py`` re-export hubs and any import line marked ``# noqa``, and
counts a name listed in the module's ``__all__`` as used.  A name counts as
used when it appears in the scope the import binds it in (the module, or
the function or class holding the import) or in a string annotation
there.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: What ``ruff check`` is given in CI.
LINTED = ("src", "tests", "benchmarks", "examples", "scripts", "conftest.py")

#: Run scratch the benchmark leaves inside ``benchmarks/e2e``.
SKIPPED_DIRECTORIES = {"__pycache__", "_work", "_cache"}

_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _linted_files() -> Iterator[pathlib.Path]:
    for name in LINTED:
        path = REPO_ROOT / name
        if path.is_file():
            yield path
            continue
        for file in sorted(path.rglob("*.py")):
            if SKIPPED_DIRECTORIES.isdisjoint(file.relative_to(path).parts):
                yield file


def _names_in(node: ast.AST) -> Set[str]:
    """Every name *node* reads, string annotations (``"UpdateBatch"``) included."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                expression = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return names


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    exported: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    exported.update(
                        element.value
                        for element in node.value.elts
                        if isinstance(element, ast.Constant)
                    )
    return exported


def unused_imports(path: pathlib.Path) -> List[str]:
    """``path:line F401 name`` for every import *path* never uses, in line order."""
    if path.name == "__init__.py":
        return []
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = _exported(tree)
    problems = []

    def visit(scope: ast.AST) -> None:
        used = None
        nested = []
        for node in _own_nodes(scope, nested):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            if "# noqa" in statement:
                continue
            if used is None:
                used = _names_in(scope) | exported
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in used:
                    problems.append((node.lineno, f"{path}:{node.lineno} F401 {bound}"))
        for child in nested:
            visit(child)

    visit(tree)
    return [problem for _, problem in sorted(problems)]


def _own_nodes(scope: ast.AST, nested: List[ast.AST]) -> Iterator[ast.AST]:
    """The nodes of *scope* outside its inner scopes, which go to *nested*."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            nested.append(node)
        else:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_no_unused_imports():
    problems = [problem for path in _linted_files() for problem in unused_imports(path)]
    assert not problems, "unused imports (ruff F401):\n" + "\n".join(problems)


def test_the_scan_finds_what_ruff_would(tmp_path):
    """A module-level and a function-level unused import; ``__all__`` and noqa spare theirs."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import List, Optional\n"
        "import json\n"
        "__all__ = ['json']\n"
        "def f(x: 'Optional[int]'):\n"
        "    import re\n"
        "    import math\n"
        "    return math.pi\n"
    )
    assert unused_imports(probe) == [
        f"{probe}:{line} F401 {name}" for line, name in ((1, "os"), (3, "List"), (7, "re"))
    ]
    (tmp_path / "__init__.py").write_text("import os\n")
    assert unused_imports(tmp_path / "__init__.py") == []  # a re-export hub
