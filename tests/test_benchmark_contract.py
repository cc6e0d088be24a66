"""The names ``benchmarks/e2e`` resolves in ``src/repro`` still exist.

Under ``--trace 1`` ``benchmarks/e2e/launch.py`` wraps a list of module
globals, methods and callables with tracer spans *before* the service
starts, so renaming any of them aborts the benchmark run instead of failing
a test.  This runs exactly that wrapping — in a subprocess, because it
rebinds ``os.fsync`` and class attributes — and asserts it succeeds.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys
sys.path.insert(0, "benchmarks/e2e")
import launch
from tracer import Tracer
launch.install_tracing(Tracer())
"""


def test_install_tracing_resolves_every_wrapped_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
