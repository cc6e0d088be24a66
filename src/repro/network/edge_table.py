"""Edge table (*ET*): per-edge data-object bookkeeping plus location services.

In the paper the edge table is a hash table keyed by edge id storing, for
every edge, its endpoints, adjacency, weight, the list of data objects
currently on it, and its influence list.  In this library the static
topology and the weights already live in :class:`~repro.network.graph.RoadNetwork`
and the influence lists are algorithm state
(:class:`~repro.core.influence.InfluenceIndex`), so :class:`EdgeTable`
focuses on the *dynamic object* side:

* which data objects currently lie on which edge,
* where exactly each object is (its :class:`NetworkLocation`),
* translating raw workspace coordinates from client updates into network
  locations through the PMR quadtree (the paper's *SI*), which is derived
  from the network on the first snap and never persisted.

A single ``EdgeTable`` can be shared by several monitoring algorithms
running in lock-step over the same data, which is how the experiment
harness compares OVH / IMA / GMA on identical inputs.
"""

from __future__ import annotations

from array import array
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import (
    DuplicateObjectError,
    EdgeNotFoundError,
    InvalidLocationError,
    UnknownObjectError,
)
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.record import write_float_column, write_int_column
from repro.spatial.geometry import Point
from repro.spatial.pmr_quadtree import PMRQuadtree


#: Longest per-edge id list; a longer pile is kept in a dict instead.
_PILE = 32


class EdgeTable:
    """Tracks the data objects lying on every edge of a road network.

    It also snaps raw coordinates onto edges through a PMR quadtree that is
    derived state: built on the first snap and never part of a snapshot.

    Example::

        edge_table = EdgeTable(network)
        edge_table.insert_object(7, edge_table.snap_point(Point(120.0, 80.0)))
        print(edge_table.objects_on(10))
    """

    def __init__(self, network: RoadNetwork, build_spatial_index: bool = True) -> None:
        """Create an edge table bound to *network*, freezing its topology.

        Args:
            network: the underlying road network.
            build_spatial_index: when True (default) raw coordinates can be
                snapped to edges through a PMR quadtree over the network
                edges.  The tree is derived state: it is built on the first
                snap (or :attr:`spatial_index` read), not here.  Pass
                False when only id-based updates are used; a snap then
                raises :class:`EdgeNotFoundError`.
        """
        network.freeze()
        self._network = network
        self._objects: Dict[int, NetworkLocation] = {}
        # Per-edge object ids in arrival order: a list costs a quarter of a
        # set, and no reader depends on the order (top-k breaks distance
        # ties by object id).  A pile longer than _PILE turns into a dict,
        # just as ordered, so removing an id from it is not a scan.
        self._objects_on_edge: Dict[int, Union[List[int], Dict[int, None]]] = {}
        # Per-edge ``[(object_id, fraction), ...]`` lists, built lazily and
        # invalidated on mutation; the search kernel scans these on its hot
        # path instead of re-deriving fractions through per-object lookups.
        self._fraction_cache: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        # Monotone mutation counter; bumped by every insert/remove/move so
        # derived object columns (the native kernel's flattened CSR of
        # objects per edge) can be cached and invalidated cheaply.
        self._version = 0
        self._indexed = build_spatial_index
        self._spatial_index: Optional[PMRQuadtree] = None

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The underlying road network."""
        return self._network

    @property
    def object_count(self) -> int:
        """Number of registered data objects."""
        return len(self._objects)

    @property
    def spatial_index(self) -> Optional[PMRQuadtree]:
        """The PMR quadtree over the network's edges, built on first use.

        ``None`` for a table built with ``build_spatial_index=False`` or a
        network without edges.  The network's topology is frozen, so the
        tree is built once.
        """
        if self._spatial_index is None and self._indexed and self._network.edge_count:
            self.rebuild_spatial_index()
        return self._spatial_index

    @property
    def indexes_coordinates(self) -> bool:
        """Whether raw coordinates can be snapped (``build_spatial_index``).

        True does not mean the tree exists yet: see :attr:`spatial_index`.
        """
        return self._indexed

    @property
    def version(self) -> int:
        """Monotone counter of object mutations (insert/remove/move).

        Derived per-batch structures (e.g. the native kernel's flattened
        object columns) key their caches on this value: equal versions
        guarantee an identical object population.

        Example::

            before = edge_table.version
            edge_table.insert_object(7, location)
            assert edge_table.version > before
        """
        return self._version

    # ------------------------------------------------------------------
    # spatial index
    # ------------------------------------------------------------------
    def rebuild_spatial_index(self) -> PMRQuadtree:
        """Build the PMR quadtree over the network's edges.

        Edges are loaded in ``network.edge_ids()`` order, so the same network
        always yields the same tree.  Also turns snapping on for a table
        built with ``build_spatial_index=False``.
        """
        index = PMRQuadtree(self._network)
        self._indexed = True
        self._spatial_index = index
        return index

    def _index_or_raise(self) -> PMRQuadtree:
        index = self.spatial_index
        if index is None:
            raise EdgeNotFoundError(-1)
        return index

    def snap_point(self, point: Point) -> NetworkLocation:
        """Snap workspace coordinates to the nearest edge.

        This is the operation the monitoring server performs on the raw
        ``(x, y)`` coordinates contained in object and query updates: one
        :meth:`snap_points` call.  The first snap builds the spatial index
        (see :attr:`spatial_index`).

        Raises:
            EdgeNotFoundError: if the table has no spatial index
                (``build_spatial_index=False``) or the network has no edges.
            InvalidLocationError: if a coordinate is not a finite number,
                or no edge lies at a finite distance from the point.
        """
        return self.snap_points((point,))[0]

    def snap_points(self, points: Sequence[Point]) -> List[NetworkLocation]:
        """Snap a whole batch of workspace coordinates to their nearest edges.

        One :meth:`PMRQuadtree.snap` pass, which answers a batch of four or
        more points, when numpy is installed, with one broadcast per leaf
        quad.  When several edges are exactly equidistant from a point the
        chosen edge may then differ from the single-point path, but the
        snapped position is always an equally near location.  A point
        that fails fails the whole batch, before anything is returned.

        Raises:
            EdgeNotFoundError: if the table has no spatial index
                (``build_spatial_index=False``) or the network has no edges.
            InvalidLocationError: if a coordinate is not a finite number,
                or no edge lies at a finite distance from a point.
        """
        return [
            NetworkLocation(edge_id, fraction)
            for edge_id, fraction in self._index_or_raise().snap(points)
        ]

    # ------------------------------------------------------------------
    # object bookkeeping
    # ------------------------------------------------------------------
    def insert_object(self, object_id: int, location: NetworkLocation) -> None:
        """Register a new data object at *location*.

        Raises:
            DuplicateObjectError: if the id is already registered.
            EdgeNotFoundError: if the location references an unknown edge.
        """
        if object_id in self._objects:
            raise DuplicateObjectError(object_id)
        self._network.validate_location(location)
        self._objects[object_id] = location
        self._add_to_edge(object_id, location.edge_id)
        self._version += 1

    def remove_object(self, object_id: int) -> NetworkLocation:
        """Unregister a data object, returning its last location.

        Raises:
            UnknownObjectError: if the object is not registered.
        """
        location = self._objects.pop(object_id, None)
        if location is None:
            raise UnknownObjectError(object_id)
        self._drop_from_edge(object_id, location.edge_id)
        self._version += 1
        return location

    def move_object(self, object_id: int, new_location: NetworkLocation) -> NetworkLocation:
        """Move an object to *new_location*, returning its previous location.

        Raises:
            UnknownObjectError: if the object is not registered.
            EdgeNotFoundError: if the new location references an unknown edge.
        """
        old_location = self._objects.get(object_id)
        if old_location is None:
            raise UnknownObjectError(object_id)
        self._network.validate_location(new_location)
        # In place: the object keeps its registration-order slot.
        self._objects[object_id] = new_location
        if old_location.edge_id == new_location.edge_id:
            self._fraction_cache.pop(new_location.edge_id, None)
        else:
            self._drop_from_edge(object_id, old_location.edge_id)
            self._add_to_edge(object_id, new_location.edge_id)
        self._version += 1
        return old_location

    def _add_to_edge(self, object_id: int, edge_id: int) -> None:
        on_edge = self._objects_on_edge.get(edge_id)
        if on_edge is None:
            self._objects_on_edge[edge_id] = [object_id]
        elif type(on_edge) is dict:
            on_edge[object_id] = None
        elif len(on_edge) < _PILE:
            on_edge.append(object_id)
        else:
            on_edge = self._objects_on_edge[edge_id] = dict.fromkeys(on_edge)
            on_edge[object_id] = None
        self._fraction_cache.pop(edge_id, None)

    def _drop_from_edge(self, object_id: int, edge_id: int) -> None:
        on_edge = self._objects_on_edge[edge_id]
        if type(on_edge) is dict:
            del on_edge[object_id]
        else:
            on_edge.remove(object_id)
        if not on_edge:
            del self._objects_on_edge[edge_id]
        self._fraction_cache.pop(edge_id, None)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def has_object(self, object_id: int) -> bool:
        """True when the data object is registered."""
        return object_id in self._objects

    def location_of(self, object_id: int) -> NetworkLocation:
        """Current location of an object.

        Raises:
            UnknownObjectError: if the object is not registered.
        """
        try:
            return self._objects[object_id]
        except KeyError as exc:
            raise UnknownObjectError(object_id) from exc

    def objects_on(self, edge_id: int) -> Set[int]:
        """Ids of the objects currently lying on *edge_id* (possibly empty)."""
        return set(self._objects_on_edge.get(edge_id, ()))

    def objects_with_fractions_on(self, edge_id: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(object_id, fraction)`` for the objects on *edge_id*."""
        return iter(self.edge_object_fractions(edge_id))

    @property
    def locations(self) -> Dict[int, NetworkLocation]:
        """The object id -> location map backing :meth:`location_of`.

        Exposed for the search kernel's candidate re-distancing loop (one
        dict probe per candidate instead of a has/lookup method pair).
        Treat as read-only.
        """
        return self._objects

    @property
    def fraction_cache(self) -> Dict[int, Tuple[Tuple[int, float], ...]]:
        """The per-edge fraction cache backing :meth:`edge_object_fractions`.

        Exposed for the search kernel, which probes it directly (one dict
        lookup per scanned edge) and falls back to the method on a miss.
        Treat as read-only.
        """
        return self._fraction_cache

    def edge_object_fractions(self, edge_id: int) -> Tuple[Tuple[int, float], ...]:
        """``(object_id, fraction)`` pairs on *edge_id* (hot-path accessor).

        The returned tuple is cached until an object on the edge moves, so
        repeated scans by concurrent searches cost a single dict lookup.
        """
        cached = self._fraction_cache.get(edge_id)
        if cached is not None:
            return cached
        ids = self._objects_on_edge.get(edge_id)
        if not ids:
            pairs: Tuple[Tuple[int, float], ...] = ()
        else:
            objects = self._objects
            pairs = tuple(
                (object_id, objects[object_id].fraction) for object_id in ids
            )
        self._fraction_cache[edge_id] = pairs
        return pairs

    def write_object_columns(self, stream: BinaryIO) -> None:
        """Write every object to *stream* as ids, edge ids and fractions.

        Three columns of :mod:`repro.network.record` (two int columns at
        their narrowest width, one ``float64``), in registration order and
        one at a time — what a checkpoint stores instead of one pickled
        :class:`NetworkLocation` per object.  :meth:`from_columns` rebuilds
        the table from the columns a
        :class:`~repro.network.record.ColumnReader` reads back.

        Raises:
            NetworkError: if an object id is not an integer.
        """
        locations = self._objects.values()
        write_int_column(stream, "object ids", self._objects.keys)
        write_int_column(
            stream, "object edges", lambda: (location.edge_id for location in locations)
        )
        write_float_column(stream, array("d", (location.fraction for location in locations)))

    @classmethod
    def from_columns(
        cls,
        network: RoadNetwork,
        ids: Sequence[int],
        edges: Sequence[int],
        fractions: Sequence[float],
        version: int,
        build_spatial_index: bool = True,
    ) -> "EdgeTable":
        """Rebuild a table from object columns and its :attr:`version`.

        *ids*, *edges* and *fractions* are what :meth:`write_object_columns`
        wrote, one entry per object in registration order.

        *build_spatial_index* is the original table's
        :attr:`indexes_coordinates`.  The spatial index is not restored: it
        is built from *network* on the first snap, which loads the edges in
        the same order and so yields the same tree and the same snaps.

        Raises:
            InvalidLocationError: if the three columns differ in length, or
                a fraction lies outside ``[0, 1]``.
            DuplicateObjectError: if an id appears twice.
            EdgeNotFoundError: if an object lies on an edge *network* lacks.
        """
        if not len(ids) == len(edges) == len(fractions):
            raise InvalidLocationError(
                f"object columns differ in length: {len(ids)} ids, {len(edges)} "
                f"edges, {len(fractions)} fractions"
            )
        table = cls(network, build_spatial_index)
        objects = table._objects
        has_edge = network.has_edge
        for object_id, edge_id, fraction in zip(ids, edges, fractions):
            if object_id in objects:
                raise DuplicateObjectError(object_id)
            if not has_edge(edge_id):
                raise EdgeNotFoundError(edge_id)
            objects[object_id] = NetworkLocation(edge_id, fraction)
            table._add_to_edge(object_id, edge_id)
        table._version = version
        return table

    def all_objects(self) -> Iterator[Tuple[int, NetworkLocation]]:
        """Iterate over ``(object_id, location)`` pairs for every object."""
        return iter(self._objects.items())

    def object_ids(self) -> Iterator[int]:
        """Iterate over the registered object ids."""
        return iter(self._objects.keys())

    def populated_edges(self) -> Iterator[int]:
        """Iterate over the edge ids that currently hold at least one object."""
        return iter(self._objects_on_edge.keys())

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def consistency_check(self) -> bool:
        """Verify that the per-edge lists and the per-object map agree."""
        for object_id, location in self._objects.items():
            if object_id not in self._objects_on_edge.get(location.edge_id, ()):
                return False
        total = sum(len(ids) for ids in self._objects_on_edge.values())
        return total == len(self._objects)
