"""No compiled settle engine: kept for ``benchmarks/e2e/run.py``.

This module exists only because ``run.environment()`` imports
:func:`native_available` and records it in each result file; drop it once
that import goes.
"""


def native_available() -> bool:
    """Always False: every search runs in :mod:`repro.core.search`."""
    return False
