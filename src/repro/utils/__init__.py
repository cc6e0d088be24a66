"""Shared utilities: interval algebra, RNG helpers and validation."""

import importlib
import sys
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Dict, List, Sequence, Tuple

from repro.utils.intervals import (
    Interval,
    IntervalSet,
    influencing_intervals,
    influencing_intervals_from_point,
    normalize_intervals,
    point_distance_via_endpoints,
)
from repro.utils.rng import (
    DEFAULT_SEED,
    bounded_gauss,
    derive_rng,
    make_rng,
    sample_fraction,
    shuffled,
    weighted_choice,
)
from repro.utils.validation import (
    almost_equal,
    require_fraction,
    require_in_range,
    require_non_negative,
    require_non_negative_int,
    require_positive,
    require_positive_int,
)

#: What :func:`optional_numpy` found; ``False`` until its first call.
_NUMPY = False


def optional_numpy():
    """The ``numpy`` module when it is installed, else ``None``.

    numpy is an optional extra: bulk snapping and the native backend (with
    its vectorized influence spans) use it, and no default serving path
    does.
    It is imported on the first call and the outcome cached, so a process
    that never takes one of those paths never loads it.
    """
    global _NUMPY
    if _NUMPY is False:
        try:
            import numpy
        except ImportError:
            numpy = None
        _NUMPY = numpy
    return _NUMPY


def value_class(cls=None, /, **options):
    """``@dataclass(slots=True, **options)`` that pickles as ``cls(*field_values)``.

    The memory layout of the network's value classes (docs/architecture.md):
    no per-instance dict, and pickles faster and smaller than a slotted
    dataclass's stock state protocol; loading re-runs ``__post_init__``.
    """
    if cls is None:
        return lambda cls: value_class(cls, **options)
    cls = dataclass(cls, slots=True, **options)
    values = attrgetter(*(f.name for f in fields(cls)))

    def __reduce__(self):
        return cls, values(self)

    cls.__reduce__ = __reduce__
    return cls


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable, Callable, List[str]]:
    """PEP 562 re-exports: ``__getattr__, __dir__, __all__`` for *package*.

    *table* maps each defining module to the public names it contributes.
    A name's module is imported on first access and the value cached in
    the package namespace, so importing one submodule never executes the
    package's other re-exports.
    """
    origin = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)


__all__ = [
    "Interval",
    "IntervalSet",
    "influencing_intervals",
    "influencing_intervals_from_point",
    "normalize_intervals",
    "point_distance_via_endpoints",
    "DEFAULT_SEED",
    "bounded_gauss",
    "derive_rng",
    "make_rng",
    "sample_fraction",
    "shuffled",
    "weighted_choice",
    "almost_equal",
    "require_fraction",
    "require_in_range",
    "require_non_negative",
    "require_non_negative_int",
    "require_positive",
    "require_positive_int",
    "optional_numpy",
    "lazy_exports",
]
