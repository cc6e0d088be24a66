"""Query-type abstraction: k-NN, fixed-radius range, and aggregate k-NN.

The paper's machinery — influence regions, expansion trees, incremental
repair — is not k-NN-specific.  This module introduces :class:`QuerySpec`,
the value that tells every monitor *what* a continuous query asks for:

* ``knn(k)`` — the classic continuous k nearest neighbors (the default;
  a plain ``int`` anywhere a spec is accepted means exactly this);
* ``range_query(radius)`` — continuous *range* monitoring: every data
  object within network distance ``radius``.  The influence region is the
  fixed-radius ball around the query, so the same edge-interval
  bookkeeping, tree pruning and expansion resumption apply verbatim with
  the termination bound pinned to ``radius`` instead of ``kNN_dist``;
* ``aggregate_knn(k, points, agg)`` — the k objects minimising an
  aggregate (``"sum"`` or ``"max"``) of the network distances from the
  query's own (movable) location plus a tuple of fixed extra points.
  Evaluated by per-point expansions merged under the aggregate function.

Specs travel everywhere a ``k`` used to: through
:class:`~repro.core.events.QueryUpdate`, the server ingestion surface, the
Section 4.5 batch normalization (a same-tick remove+add of one id
collapses into a movement carrying the new spec, and is split back into
terminate+install whenever the spec — including its *kind* — changed), and
the sharded server's worker protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Iterable, List, Optional, Tuple, Union

from repro.core.results import Neighbor
from repro.core.search import ExpansionRequest, expand_knn_batch

# No caller here (every search goes through expand_knn_batch), but
# benchmarks/e2e/launch.py resolves it as a module global under --trace 1.
from repro.core.search import expand_knn  # noqa: F401
from repro.exceptions import InvalidQueryError
from repro.network.graph import NetworkLocation
from repro.network.kernels import DEFAULT_KERNEL, validate_kernel

#: Recognised query kinds, in the order they were introduced.
QUERY_KINDS = ("knn", "range", "aggregate_knn")

#: Recognised aggregate distance functions of ``aggregate_knn``.
AGGREGATES = ("sum", "max")

_CANONICAL = {name: name for name in QUERY_KINDS + AGGREGATES}


@dataclass(frozen=True)
class QuerySpec:
    """What one continuous query asks for: kind plus its parameters.

    Instances are immutable and hashable, compare by value (which is what
    the Section 4.5 split-back relies on to detect a changed query), and
    pickle as a call of the constructor: a loaded spec is validated and
    holds the module's own ``kind`` and ``agg`` strings, so a state's
    pickle does not depend on where its specs came from.  Use the
    factories — :func:`knn`, :func:`range_query`, :func:`aggregate_knn`,
    or the equivalent classmethods — rather than the raw constructor.

    Attributes:
        kind: ``"knn"``, ``"range"`` or ``"aggregate_knn"``.
        k: result size for ``knn`` / ``aggregate_knn`` (ignored by
            ``range``, where the result is every in-range object).
        radius: the fixed network-distance radius of a ``range`` query.
        points: additional *fixed* query points of an ``aggregate_knn``
            query; the query's own (movable) location is always the first
            aggregation point and is not part of the spec.
        agg: aggregate distance function, ``"sum"`` or ``"max"``.

    Example::

        spec = QuerySpec.range(25.0)
        server.add_query_at(100, x=10.0, y=20.0, k=spec)
    """

    kind: str = "knn"
    k: int = 1
    radius: float = 0.0
    points: Tuple[NetworkLocation, ...] = field(default=())
    agg: str = "sum"

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise InvalidQueryError(
                f"unknown query kind {self.kind!r}; choose one of {QUERY_KINDS}"
            )
        # Hold the module's own string objects, however the spec was built:
        # pickle memoizes by identity, so a restored spec and a new one must
        # share them for a state to pickle to the same bytes.
        object.__setattr__(self, "kind", _CANONICAL[self.kind])
        if self.agg in AGGREGATES:
            object.__setattr__(self, "agg", _CANONICAL[self.agg])
        if not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))
        if self.kind == "range":
            if not (isfinite(self.radius) and self.radius > 0):
                raise InvalidQueryError(
                    f"range query needs a positive finite radius, got {self.radius!r}"
                )
        elif self.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {self.k}")
        if self.kind == "aggregate_knn":
            if self.agg not in AGGREGATES:
                raise InvalidQueryError(
                    f"unknown aggregate {self.agg!r}; choose one of {AGGREGATES}"
                )
        elif self.points:
            raise InvalidQueryError(
                f"{self.kind!r} queries take no extra points"
            )

    def __reduce__(self):
        """Pickle as a constructor call, so loading validates and canonicalizes."""
        return QuerySpec, (self.kind, self.k, self.radius, self.points, self.agg)

    def __setstate__(self, state: dict) -> None:
        """Load the attribute-dict pickle of older releases through the constructor."""
        self.__init__(**state)

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    @classmethod
    def knn(cls, k: int) -> "QuerySpec":
        """A continuous k-nearest-neighbor spec (same as passing ``k``).

        Example::

            assert QuerySpec.knn(4) == as_query_spec(4)
        """
        return cls(kind="knn", k=k)

    @classmethod
    def range(cls, radius: float) -> "QuerySpec":
        """A continuous fixed-radius range spec.

        Example::

            spec = QuerySpec.range(30.0)
        """
        return cls(kind="range", radius=radius)

    @classmethod
    def aggregate_knn(
        cls,
        k: int,
        points: Iterable[NetworkLocation] = (),
        agg: str = "sum",
    ) -> "QuerySpec":
        """A continuous aggregate k-NN spec over the location plus *points*.

        Example::

            spec = QuerySpec.aggregate_knn(2, points=(depot,), agg="max")
        """
        return cls(kind="aggregate_knn", k=k, points=tuple(points), agg=agg)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def result_k(self) -> int:
        """The ``k`` recorded on produced results (0 for unbounded range)."""
        return 0 if self.kind == "range" else self.k

    @property
    def is_knn(self) -> bool:
        """True for the classic k-NN kind (the monitors' fully incremental path)."""
        return self.kind == "knn"

    def aggregation_points(
        self, location: NetworkLocation
    ) -> Tuple[NetworkLocation, ...]:
        """Every aggregation point: the movable *location* plus the fixed ones.

        Example::

            points = spec.aggregation_points(server_location)
        """
        return (location,) + self.points


def knn(k: int) -> QuerySpec:
    """Build a k-NN :class:`QuerySpec` (module-level factory).

    Example::

        server.add_query(100, location, k=knn(4))   # same as k=4
    """
    return QuerySpec.knn(k)


def range_query(radius: float) -> QuerySpec:
    """Build a fixed-radius range :class:`QuerySpec`.

    Example::

        server.add_query(100, location, k=range_query(25.0))
    """
    return QuerySpec.range(radius)


def aggregate_knn(
    k: int, points: Iterable[NetworkLocation] = (), agg: str = "sum"
) -> QuerySpec:
    """Build an aggregate k-NN :class:`QuerySpec`.

    Example::

        server.add_query(100, location, k=aggregate_knn(3, (depot,), "sum"))
    """
    return QuerySpec.aggregate_knn(k, points, agg)


def as_query_spec(value: Union[int, QuerySpec, None]) -> Optional[QuerySpec]:
    """Normalize a user-facing ``k`` value into a :class:`QuerySpec`.

    Plain integers mean classic k-NN (the historical API); ``None`` passes
    through (a query movement that carries no spec).  Anything else must
    already be a spec.

    Example::

        assert as_query_spec(4) == QuerySpec.knn(4)
        assert as_query_spec(None) is None
    """
    if value is None or isinstance(value, QuerySpec):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidQueryError(
            f"expected an int k or a QuerySpec, got {value!r}"
        )
    return QuerySpec.knn(value)


def merge_aggregate(
    per_point: List[List[Neighbor]], spec: QuerySpec
) -> Tuple[List[Neighbor], float]:
    """Merge per-point distance lists under the spec's aggregate function.

    *per_point* holds, for every aggregation point in order, the exact
    ``(object_id, distance)`` pairs of every object reachable from that
    point.  An object aggregates only when reachable from **all** points
    (an infinite leg makes both ``sum`` and ``max`` infinite); the result
    is the top-``spec.k`` under ``(aggregate distance, object id)`` and the
    k-th aggregate distance (``inf`` when fewer than k objects qualify).

    Example::

        neighbors, radius = merge_aggregate([[(1, 2.0)], [(1, 3.0)]], spec)
    """
    if not per_point:
        return [], float("inf")
    maps = [dict(pairs) for pairs in per_point]
    first = maps[0]
    use_sum = spec.agg == "sum"
    merged: List[Tuple[float, int]] = []
    for object_id, total in first.items():
        for other in maps[1:]:
            distance = other.get(object_id)
            if distance is None:
                break
            if use_sum:
                total += distance
            elif distance > total:
                total = distance
        else:
            merged.append((total, object_id))
    merged.sort()
    top = merged[: spec.k]
    radius = top[spec.k - 1][0] if len(top) >= spec.k else float("inf")
    return [(object_id, distance) for distance, object_id in top], radius


def evaluate_aggregate(
    network,
    edge_table,
    location: NetworkLocation,
    spec: QuerySpec,
    kernel: str = DEFAULT_KERNEL,
    csr=None,
    counters=None,
) -> Tuple[List[Neighbor], float]:
    """Evaluate an aggregate k-NN query via per-point expansions.

    One network expansion per aggregation point, each asked for *every*
    live object (``k =`` object count, so the expansion terminates at the
    farthest reachable object and returns exact distances for all of
    them), merged under the spec's aggregate function by
    :func:`merge_aggregate`.  All points run through one
    :func:`~repro.core.search.expand_knn_batch` call; ``kernel`` names the
    registered settle engine (see :mod:`repro.network.kernels`) and is
    forwarded there — every engine produces identical results.

    Example::

        neighbors, radius = evaluate_aggregate(network, edge_table, loc, spec)
    """
    validate_kernel(kernel)
    object_count = edge_table.object_count
    if object_count == 0:
        return [], float("inf")
    outcomes = expand_knn_batch(
        network,
        edge_table,
        [
            ExpansionRequest(k=object_count, query_location=point)
            for point in spec.aggregation_points(location)
        ],
        counters=counters,
        csr=csr,
        kernel=kernel,
    )
    return merge_aggregate([outcome.neighbors for outcome in outcomes], spec)


def evaluate_aggregates(
    network,
    edge_table,
    items: List[Tuple[NetworkLocation, QuerySpec]],
    kernel: str = DEFAULT_KERNEL,
    csr=None,
    counters=None,
) -> List[Tuple[List[Neighbor], float]]:
    """Evaluate many aggregate queries through one shared expansion batch.

    *items* is a list of ``(location, spec)`` pairs; the return value holds
    one ``(neighbors, radius)`` pair per item, in order, each identical to
    what :func:`evaluate_aggregate` returns for that item alone.  All
    aggregation points of all items are flattened into a single
    :func:`~repro.core.search.expand_knn_batch` call with ``share=True``:
    every point asks for the same ``k`` (the live object count), so points
    that coincide — the query locations of co-located tenants, or popular
    aggregation anchors repeated across queries — collapse into **one**
    physical expansion whose outcome is reused verbatim, on every kernel.

    Example::

        evaluations = evaluate_aggregates(network, edge_table, [(loc, spec)])
        neighbors, radius = evaluations[0]
    """
    validate_kernel(kernel)
    if not items:
        return []
    object_count = edge_table.object_count
    if object_count == 0:
        return [([], float("inf")) for _ in items]
    requests: List[ExpansionRequest] = []
    spans: List[Tuple[int, int]] = []
    for location, spec in items:
        points = spec.aggregation_points(location)
        spans.append((len(requests), len(points)))
        requests.extend(
            ExpansionRequest(k=object_count, query_location=point) for point in points
        )
    outcomes = expand_knn_batch(
        network,
        edge_table,
        requests,
        counters=counters,
        csr=csr,
        kernel=kernel,
        share=True,
    )
    return [
        merge_aggregate(
            [outcomes[start + offset].neighbors for offset in range(size)], spec
        )
        for (start, size), (_, spec) in zip(spans, items)
    ]
