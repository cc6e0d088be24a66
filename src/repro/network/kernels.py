"""First-class registry of the search kernels behind ``kernel=`` arguments.

Every monitor, server and batch entry point of the library accepts a
``kernel=`` string selecting the engine that runs the settle loop (heap
drain + edge relaxation over the CSR columns).  The name picks *only* that
engine: every monitor runs the same collect-then-flush tick and forwards the
name to :func:`~repro.core.search.expand_knn_batch`.  Before this module existed
the valid names were bare string literals duplicated across a dozen
modules, so adding a backend meant touching every one of them.  The
registry makes the kernel set a single data structure:

* :data:`KERNEL_CSR` / :data:`KERNEL_NATIVE` — the canonical names (the
  only place in the library where they appear as literals);
* :func:`registered_kernels` / :func:`available_kernels` — every name the
  registry knows vs the ones that can actually run on this machine (the
  compiled ``native`` backend is registered everywhere but *available*
  only where its shared library imports);
* :func:`resolve_kernel` — name -> :class:`KernelSpec` with per-kernel
  capability flags, raising a typed
  :class:`~repro.exceptions.UnknownKernelError` that names the valid
  choices.

The old string kwargs keep working unchanged: ``kernel="native"`` still
means what it always did, it is just validated and dispatched through one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.exceptions import UnknownKernelError

#: Canonical kernel names — the single home of the bare string literals.
KERNEL_CSR = "csr"
KERNEL_NATIVE = "native"

#: Default kernel of every monitor/server constructor and of
#: :func:`repro.core.search.expand_knn_batch` (the flat-array heap engine).
DEFAULT_KERNEL = KERNEL_CSR


@dataclass(frozen=True)
class KernelSpec:
    """Capabilities of one registered search kernel.

    Attributes:
        name: the registry name (the value of the ``kernel=`` kwarg).
        description: one-line summary used by docs and error messages.
        compiled: True when the settle loop runs in machine code rather
            than the Python interpreter.

    Example::

        spec = resolve_kernel("native")
        print(spec.description, spec.compiled)
    """

    name: str
    description: str
    compiled: bool = False
    #: Optional runtime probe; the kernel is listed by
    #: :func:`available_kernels` only when it returns True.
    probe: Optional[Callable[[], bool]] = field(default=None, compare=False)

    @property
    def available(self) -> bool:
        """True when the kernel can actually run on this machine.

        Example::

            assert resolve_kernel("csr").available
        """
        return self.probe is None or bool(self.probe())


def _native_probe() -> bool:
    """Whether the compiled native backend imports (lazy, cached there)."""
    from repro.network.native import native_available

    return native_available()


#: The registry proper, in documentation order.  ``native`` is registered
#: unconditionally — resolving it always succeeds, and when the compiled
#: library cannot be built the engine transparently serves requests through
#: the ``csr`` path — but :func:`available_kernels` lists it only
#: when the backend actually imports.
_REGISTRY: Dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (
        KernelSpec(
            name=KERNEL_CSR,
            description="flat-array binary-heap engine (default)",
        ),
        KernelSpec(
            name=KERNEL_NATIVE,
            description=(
                "compiled (C via ctypes) settle loop over the CSR column "
                "mirrors; falls back to csr when unavailable"
            ),
            compiled=True,
            probe=_native_probe,
        ),
    )
}


def registered_kernels() -> Tuple[str, ...]:
    """Every kernel name the registry knows, in documentation order.

    Example::

        assert registered_kernels() == ("csr", "native")
    """
    return tuple(_REGISTRY)


def available_kernels() -> Tuple[str, ...]:
    """The registered kernels that can actually run on this machine.

    ``native`` appears only when the compiled backend imports (a C
    compiler was found, or a previously built library is cached); ``csr``
    is always listed.  Test suites parametrize over
    this so new backends are swept automatically.

    Example::

        for kernel in available_kernels():
            print(kernel)
    """
    return tuple(name for name, spec in _REGISTRY.items() if spec.available)


def resolve_kernel(name: str) -> KernelSpec:
    """Look up a kernel by name; raise :class:`UnknownKernelError` otherwise.

    Resolution succeeds for every *registered* name — including ``native``
    on machines where the compiled backend is unavailable, because that
    kernel falls back to the ``csr`` engine at run time.  The
    error message of a failed lookup names the registered kernels and
    flags ``native`` when it would fall back.

    Example::

        spec = resolve_kernel("native")
        print(spec.compiled)
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        native = _REGISTRY[KERNEL_NATIVE]
        detail = "" if native.available else (
            f"{KERNEL_NATIVE!r} is registered but its compiled backend is "
            f"unavailable here, so it would run on the {KERNEL_CSR!r} fallback"
        )
        raise UnknownKernelError(name, registered_kernels(), detail)
    return spec


def validate_kernel(name: str) -> str:
    """Resolve *name* and return it (constructor-argument validation).

    Example::

        kernel = validate_kernel("native")
    """
    return resolve_kernel(name).name
