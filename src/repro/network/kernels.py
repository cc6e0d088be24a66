"""The name of the one settle engine, kept for ``benchmarks/e2e/run.py``.

Every expansion runs the heap-and-columns loop of
:mod:`repro.core.search`; there is no choice of engine.  This module exists
only because ``run.environment()`` imports :data:`DEFAULT_KERNEL` and
records it in each result file; drop it once that import goes.
"""

#: The settle engine every search runs on.
DEFAULT_KERNEL = "csr"
