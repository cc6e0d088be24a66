"""Kernel legs for the engine sweeps.

Every sweep runs once per kernel that can run here, plus one
``native-fallback`` leg: ``kernel="native"`` with its compiled backend
disabled (``REPRO_NATIVE_DISABLE=1``, which is also what a host without
a compiler or numpy gets).  On that leg every batch takes native's
whole-batch fallback to the csr path, so each swept behaviour is checked
there too.  The ``native_fallback`` mark is honoured by the autouse
fixture in ``tests/conftest.py``.
"""

from __future__ import annotations

import pytest

from repro.network.kernels import KERNEL_NATIVE, available_kernels

NATIVE_FALLBACK_ID = "native-fallback"


def kernel_legs():
    """``pytest.param`` legs: each available kernel, then native's fallback."""
    legs = [pytest.param(kernel, id=kernel) for kernel in available_kernels()]
    legs.append(
        pytest.param(
            KERNEL_NATIVE, id=NATIVE_FALLBACK_ID, marks=pytest.mark.native_fallback
        )
    )
    return legs


def native_legs():
    """The ``kernel="native"`` legs: compiled (where it builds) and fallback."""
    return [leg for leg in kernel_legs() if leg.values == (KERNEL_NATIVE,)]
