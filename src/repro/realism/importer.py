"""OSM-style nodes/ways importer and deterministic synthetic-city generator.

Real road datasets ship as *nodes* (points with coordinates) plus *ways*
(polylines tagged with a road class), not as clean edge lists.  This module
accepts a compact text encoding of that shape — the ``# repro ways v1``
format — and turns it into a monitoring-ready :class:`~repro.network.graph.RoadNetwork`:

* every consecutive node pair of a way becomes an edge candidate;
* self loops are dropped and parallel edges between the same endpoint pair
  are deduplicated (the cheapest survives — the fastest road wins);
* only the largest connected component is kept, because every monitoring
  algorithm in this repo assumes reachable queries/objects;
* edge weights are travel times derived from the way's *speed class*
  (``length * reference_speed / class_speed``), so a motorway kilometre is
  cheaper than a side-street kilometre.

The module also contains a deterministic synthetic-city generator
(:func:`synthetic_city_text`) that emits the *same* text format: an
arterial grid overlaid on a jittered side-street mesh, with random
side-street removal producing dead ends and the realistic mix of degree-1,
degree-2 (shape point) and degree-3/4 (intersection) nodes.  Because the
generator goes through the importer, every generated benchmark network
exercises the full parse → dedup → largest-component pipeline.

Format reference (see also ``docs/realism.md``)::

    # repro ways v1
    node <id> <x> <y>
    way <id> <class> <node_id> <node_id> [<node_id> ...]

Blank lines and ``#`` comments are ignored after the header; ``<class>``
must be one of :data:`SPEED_CLASSES`.
"""

from __future__ import annotations

import math
import os
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.exceptions import NetworkError
from repro.network.graph import RoadNetwork

PathLike = Union[str, os.PathLike]

WAYS_HEADER = "# repro ways v1"

#: Road classes and their free-flow speeds (workspace units per time unit).
#: Weights are travel times normalised so that a ``street`` edge's weight
#: equals its geometric length: ``weight = length * REFERENCE_SPEED / speed``.
SPEED_CLASSES: Mapping[str, float] = {
    "motorway": 120.0,
    "arterial": 80.0,
    "street": 50.0,
    "side": 30.0,
}

#: Each class name mapped to itself: a parsed way holds the one string.
_CLASS_NAMES: Mapping[str, str] = {name: name for name in SPEED_CLASSES}

#: The speed whose class maps lengths to weights unchanged.
REFERENCE_SPEED = 50.0

#: Weight assigned to degenerate zero-length segments (coincident nodes).
MIN_SEGMENT_WEIGHT = 1e-9


@dataclass(frozen=True, slots=True)
class Way:
    """One parsed way: an ordered polyline of node ids with a road class.

    Example::

        way = Way(way_id=7, speed_class="arterial", node_ids=(1, 2, 3))
        assert len(way.node_ids) - 1 == 2   # two edge candidates
    """

    way_id: int
    speed_class: str
    node_ids: Tuple[int, ...]


@dataclass(frozen=True)
class ParsedWays:
    """The raw result of parsing a ways text: nodes and ways, unvalidated.

    ``nodes`` maps node id → ``(x, y)``; ``ways`` preserves file order.
    Topology cleanup (dedup, components) happens later in
    :func:`import_ways_text`.

    Example::

        parsed = parse_ways_text(WAYS_HEADER + "\\nnode 1 0 0\\nnode 2 1 0\\n"
                                 "way 1 street 1 2\\n")
        assert parsed.nodes[1] == (0.0, 0.0) and len(parsed.ways) == 1
    """

    nodes: Dict[int, Tuple[float, float]]
    ways: Tuple[Way, ...]


@dataclass
class ImportStats:
    """Counters describing what the import pipeline kept and dropped.

    Attributes:
        nodes_parsed: node records in the input.
        ways_parsed: way records in the input.
        segments_parsed: consecutive node pairs across all ways.
        self_loops_dropped: segments whose endpoints were the same node.
        zero_length_segments: kept segments with coincident endpoints
            (assigned :data:`MIN_SEGMENT_WEIGHT`).
        parallel_dropped: segments discarded because a cheaper (or earlier,
            on ties) segment already connected the same endpoint pair.
        components: connected components among the deduplicated segments.
        isolated_nodes_dropped: parsed nodes referenced by no kept segment.
        component_nodes_dropped: nodes outside the largest component.
        nodes_kept: nodes in the final network.
        edges_kept: edges in the final network.

    Example::

        result = import_ways_text(text)
        assert result.stats.edges_kept == result.network.edge_count
    """

    nodes_parsed: int = 0
    ways_parsed: int = 0
    segments_parsed: int = 0
    self_loops_dropped: int = 0
    zero_length_segments: int = 0
    parallel_dropped: int = 0
    components: int = 0
    isolated_nodes_dropped: int = 0
    component_nodes_dropped: int = 0
    nodes_kept: int = 0
    edges_kept: int = 0


@dataclass
class ImportResult:
    """A monitoring-ready network plus provenance from the import pipeline.

    Attributes:
        network: the largest-component, deduplicated :class:`RoadNetwork`
            with sequential edge ids ``0..edge_count-1``.
        stats: what was kept/dropped (see :class:`ImportStats`).
        speed_classes: edge id → road-class name; this is what the
            rush-hour traffic model keys its congestion waves on.

    Example::

        result = synthetic_city_network(target_edges=500, seed=7)
        arterials = [e for e, c in result.speed_classes.items()
                     if c == "arterial"]
        assert result.network.is_connected() and arterials
    """

    network: RoadNetwork
    stats: ImportStats
    speed_classes: Dict[int, str] = field(default_factory=dict)


def parse_ways_text(text: str, source: str = "<text>") -> ParsedWays:
    """Parse ``# repro ways v1`` text into nodes and ways.

    No topology cleanup happens here — duplicate node ids, unknown node
    references and malformed records raise, but self loops, parallel edges
    and disconnected pieces are legal input (the import pipeline resolves
    them).

    Args:
        text: the file content, header included.
        source: label used in error messages (a path, usually).

    Raises:
        NetworkError: on a missing header, malformed record, duplicate
            node/way id, or unknown speed class.

    Example::

        parsed = parse_ways_text(
            "# repro ways v1\\nnode 1 0 0\\nnode 2 1 0\\nway 5 side 1 2\\n"
        )
        assert parsed.ways[0].speed_class == "side"
    """
    nodes: Dict[int, Tuple[float, float]] = {}
    ways = tuple(_parse_ways(text, source, nodes))
    return ParsedWays(nodes=nodes, ways=ways)


def _parse_ways(
    text: str, source: str, nodes: Dict[int, Tuple[float, float]]
) -> Iterator[Way]:
    """Yield the ways of *text* one at a time, filling *nodes* as it goes.

    A way may only name nodes defined above it, so each way is complete
    when it is yielded; the import pipeline explodes it and drops it, and
    no list of lines or of ways is ever built.
    """
    first_content = next((line.strip() for line in _lines(text) if line.strip()), "")
    if first_content != WAYS_HEADER:
        raise NetworkError(
            f"{source}: not a repro ways file (expected header {WAYS_HEADER!r})"
        )
    way_ids = set()
    seen_header = False
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line == WAYS_HEADER and not seen_header:
                seen_header = True
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "node":
                if len(parts) != 4:
                    raise ValueError("expected 'node <id> <x> <y>'")
                node_id = int(parts[1])
                if node_id in nodes:
                    raise ValueError(f"duplicate node id {node_id}")
                nodes[node_id] = (float(parts[2]), float(parts[3]))
            elif kind == "way":
                if len(parts) < 5:
                    raise ValueError(
                        "expected 'way <id> <class> <node> <node> [...]'"
                    )
                way_id = int(parts[1])
                if way_id in way_ids:
                    raise ValueError(f"duplicate way id {way_id}")
                speed_class = _CLASS_NAMES.get(parts[2])
                if speed_class is None:
                    raise ValueError(
                        f"unknown speed class {parts[2]!r} "
                        f"(known: {', '.join(sorted(SPEED_CLASSES))})"
                    )
                node_ids = tuple(int(part) for part in parts[3:])
                missing = [n for n in node_ids if n not in nodes]
                if missing:
                    raise ValueError(f"way references undefined node {missing[0]}")
                way_ids.add(way_id)
                way = Way(way_id, speed_class, node_ids)
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except ValueError as exc:
            raise NetworkError(f"{source}:{line_no}: {exc} in {line!r}") from exc
        if kind == "way":
            yield way


def _lines(text: str) -> Iterator[str]:
    """The lines of *text* one at a time (a ``\\r`` before ``\\n`` stays on the line)."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start)
        if end < 0:
            end = size
        yield text[start:end]
        start = end + 1


def import_ways_text(text: str, source: str = "<text>") -> ImportResult:
    """Parse and import ways text into a monitoring-ready network.

    Pipeline: parse → explode ways into segments → drop self loops → dedup
    parallel edges (cheapest wins, earliest wins ties) → keep the largest
    connected component (ties broken by smallest contained node id) →
    renumber edges sequentially in surviving input order.

    Raises:
        NetworkError: on malformed input or when no usable segment remains.

    Example::

        result = import_ways_text(synthetic_city_text(CitySpec(), seed=3))
        assert result.network.is_connected()
        assert all(e.weight > 0 for e in result.network.edges())
    """
    nodes: Dict[int, Tuple[float, float]] = {}
    return _import(nodes, _parse_ways(text, source, nodes), source)


def import_road_network(path: PathLike) -> ImportResult:
    """Import a ``# repro ways v1`` file from disk.

    Raises:
        NetworkError: on malformed content (errors carry the path and line).

    Example::

        result = import_road_network("tests/data/realism/triangle_city.ways")
        print(result.stats.edges_kept)
    """
    path = Path(path)
    return import_ways_text(path.read_text(encoding="utf-8"), source=str(path))


def import_parsed(parsed: ParsedWays, source: str = "<text>") -> ImportResult:
    """Run the cleanup pipeline on an already-parsed ways description.

    See :func:`import_ways_text` for the pipeline steps; this entry point
    exists so programmatically-built :class:`ParsedWays` (e.g. from property
    tests) can skip text serialisation.

    Raises:
        NetworkError: when no usable segment remains after cleanup.

    Example::

        parsed = ParsedWays(
            nodes={1: (0.0, 0.0), 2: (1.0, 0.0)},
            ways=(Way(1, "street", (1, 2)),),
        )
        result = import_parsed(parsed)
        assert result.network.edge_count == 1
    """
    return _import(parsed.nodes, parsed.ways, source)


def _import(
    nodes: Dict[int, Tuple[float, float]], ways: Iterable[Way], source: str
) -> ImportResult:
    """The cleanup pipeline over *ways*, which may be a one-pass stream.

    *nodes* must be complete once *ways* is exhausted (a streaming parse
    fills it as it goes).  The result's network is built from columns
    (:meth:`RoadNetwork.from_columns`): no per-node or per-edge object.
    """
    stats = ImportStats()

    # Explode ways into candidate segments, dropping self loops and keeping
    # the cheapest segment per unordered endpoint pair.
    best: Dict[Tuple[int, int], Tuple[float, str]] = {}
    order: List[Tuple[int, int]] = []
    for way in ways:
        stats.ways_parsed += 1
        speed = SPEED_CLASSES[way.speed_class]
        for u, v in zip(way.node_ids, way.node_ids[1:]):
            stats.segments_parsed += 1
            if u == v:
                stats.self_loops_dropped += 1
                continue
            ux, uy = nodes[u]
            vx, vy = nodes[v]
            length = math.hypot(vx - ux, vy - uy)
            weight = length * (REFERENCE_SPEED / speed)
            if weight <= 0.0:
                stats.zero_length_segments += 1
                weight = MIN_SEGMENT_WEIGHT
            key = (u, v) if u <= v else (v, u)
            existing = best.get(key)
            if existing is None:
                best[key] = (weight, way.speed_class)
                order.append(key)
            else:
                stats.parallel_dropped += 1
                if weight < existing[0]:
                    best[key] = (weight, way.speed_class)
    stats.nodes_parsed = len(nodes)
    if not best:
        raise NetworkError(f"{source}: no usable road segments after import")

    # Largest connected component over the deduplicated segment graph
    # (union-find; ties broken by smallest contained node id so the result
    # is deterministic regardless of dict iteration details).
    parent: Dict[int, int] = {}

    def find(node: int) -> int:
        """Root of ``node``'s component, with path compression."""
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for u, v in order:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    members: Dict[int, List[int]] = {}
    for node in parent:
        members.setdefault(find(node), []).append(node)
    stats.components = len(members)
    stats.isolated_nodes_dropped = len(nodes) - len(parent)
    winner = max(members.items(), key=lambda item: (len(item[1]), -item[0]))[0]
    kept_nodes = set(members[winner])
    stats.component_nodes_dropped = len(parent) - len(kept_nodes)

    # The network's columns, straight from the pipeline.  Each stage's
    # tables go as soon as the next stage has what it needs: the import's
    # peak is a serving process's set-up peak.
    del members, parent
    node_ids = sorted(kept_nodes)
    starts: List[int] = []
    ends: List[int] = []
    weights = array("d")
    speed_classes: Dict[int, str] = {}
    for u, v in order:
        if u in kept_nodes:
            weight, speed_class = best[(u, v)]
            speed_classes[len(starts)] = speed_class
            starts.append(u)
            ends.append(v)
            weights.append(weight)
    del best, order, kept_nodes
    network = RoadNetwork.from_columns(
        node_ids,
        array("d", (nodes[node_id][0] for node_id in node_ids)),
        array("d", (nodes[node_id][1] for node_id in node_ids)),
        range(len(starts)),
        starts,
        ends,
        weights,
        bytes(len(starts)),
    )
    stats.nodes_kept = network.node_count
    stats.edges_kept = network.edge_count
    return ImportResult(network=network, stats=stats, speed_classes=speed_classes)


@dataclass(frozen=True)
class CitySpec:
    """Shape parameters for the deterministic synthetic city.

    The city is a ``rows x cols`` jittered mesh.  Every ``arterial_every``-th
    row/column line is a single long arterial way (crossing side streets at
    every mesh node); the remaining mesh segments are two-node ``street`` or
    ``side`` ways, a fraction of which is removed to create dead ends and the
    occasional disconnected pocket (the importer's largest-component pass
    cleans those up).  A small fraction of side segments is emitted twice to
    exercise parallel-edge dedup on every generated city.

    Attributes:
        rows: mesh node rows (>= 2).
        cols: mesh node columns (>= 2).
        spacing: distance between adjacent mesh nodes.
        jitter: node coordinate jitter as a fraction of ``spacing``.
        arterial_every: grid period of arterial lines (0 disables arterials).
        motorway_ring: when True the outermost grid lines become motorways.
        side_fraction: probability a non-arterial segment is class ``side``
            instead of ``street``.
        removal_fraction: probability a non-arterial segment is removed.
        duplicate_fraction: probability a non-arterial segment is emitted
            twice (as a parallel way, deduplicated on import).

    Example::

        spec = CitySpec(rows=12, cols=12, removal_fraction=0.2)
        result = import_ways_text(synthetic_city_text(spec, seed=1))
        assert result.network.is_connected()
    """

    rows: int = 16
    cols: int = 16
    spacing: float = 100.0
    jitter: float = 0.15
    arterial_every: int = 4
    motorway_ring: bool = True
    side_fraction: float = 0.35
    removal_fraction: float = 0.12
    duplicate_fraction: float = 0.02

    @staticmethod
    def for_target_edges(target_edges: int) -> "CitySpec":
        """A spec sized so the imported city lands near *target_edges*.

        The mesh has roughly ``2 * rows * cols`` segments before removal;
        the side is solved from that and padded slightly to compensate for
        removed segments and the trimmed component.

        Example::

            spec = CitySpec.for_target_edges(20_000)
            result = import_ways_text(synthetic_city_text(spec, seed=0))
            assert 15_000 < result.network.edge_count < 25_000
        """
        if target_edges < 4:
            raise NetworkError(f"target_edges must be >= 4, got {target_edges}")
        side = max(2, round(math.sqrt(target_edges / 2.0) * 1.05) + 1)
        return CitySpec(rows=side, cols=side)


def synthetic_city_text(spec: CitySpec, seed: int) -> str:
    """Emit a deterministic synthetic city in ``# repro ways v1`` format.

    Deterministic from ``(spec, seed)``: the same pair always yields the
    same bytes, so goldens and benchmarks are reproducible anywhere.

    Example::

        text_a = synthetic_city_text(CitySpec(rows=6, cols=6), seed=42)
        text_b = synthetic_city_text(CitySpec(rows=6, cols=6), seed=42)
        assert text_a == text_b
    """
    if spec.rows < 2 or spec.cols < 2:
        raise NetworkError(
            f"city mesh needs rows, cols >= 2, got {spec.rows}x{spec.cols}"
        )
    rng = random.Random(f"realism-city/{spec.rows}x{spec.cols}/{seed}")
    lines = [WAYS_HEADER]

    def node_id(r: int, c: int) -> int:
        """Row-major mesh node id."""
        return r * spec.cols + c

    for r in range(spec.rows):
        for c in range(spec.cols):
            x = c * spec.spacing + rng.uniform(-1.0, 1.0) * spec.jitter * spec.spacing
            y = r * spec.spacing + rng.uniform(-1.0, 1.0) * spec.jitter * spec.spacing
            lines.append(f"node {node_id(r, c)} {x:.3f} {y:.3f}")

    way_id = 0

    def emit_way(speed_class: str, node_ids: Sequence[int]) -> None:
        """Append one way record, consuming the next way id."""
        nonlocal way_id
        lines.append(f"way {way_id} {speed_class} {' '.join(map(str, node_ids))}")
        way_id += 1

    def line_class(index: int, last: int) -> str:
        """Speed class of an arterial grid line (ring lines are motorway)."""
        if spec.motorway_ring and index in (0, last):
            return "motorway"
        return "arterial"

    arterial_rows = set()
    arterial_cols = set()
    if spec.arterial_every > 0:
        arterial_rows = {
            r for r in range(spec.rows) if r % spec.arterial_every == 0
        } | {spec.rows - 1}
        arterial_cols = {
            c for c in range(spec.cols) if c % spec.arterial_every == 0
        } | {spec.cols - 1}

    # Arterial/motorway lines: one long multi-node way each, so interior
    # crossings become degree-4 intersections and removed side streets leave
    # degree-2 shape points along the arterial.
    for r in sorted(arterial_rows):
        emit_way(
            line_class(r, spec.rows - 1),
            [node_id(r, c) for c in range(spec.cols)],
        )
    for c in sorted(arterial_cols):
        emit_way(
            line_class(c, spec.cols - 1),
            [node_id(r, c) for r in range(spec.rows)],
        )

    # Side-street mesh: the remaining horizontal/vertical unit segments as
    # two-node ways, with removal (dead ends) and occasional duplicates.
    def emit_side_segment(a: int, b: int) -> None:
        """Emit one infill segment, subject to removal/duplication draws."""
        if rng.random() < spec.removal_fraction:
            return
        speed_class = "side" if rng.random() < spec.side_fraction else "street"
        emit_way(speed_class, (a, b))
        if rng.random() < spec.duplicate_fraction:
            emit_way("street", (a, b))

    for r in range(spec.rows):
        if r in arterial_rows:
            continue
        for c in range(spec.cols - 1):
            emit_side_segment(node_id(r, c), node_id(r, c + 1))
    for c in range(spec.cols):
        if c in arterial_cols:
            continue
        for r in range(spec.rows - 1):
            emit_side_segment(node_id(r, c), node_id(r + 1, c))

    return "\n".join(lines) + "\n"


def synthetic_city_network(target_edges: int, seed: int) -> ImportResult:
    """Generate and import a synthetic city near *target_edges* edges.

    Convenience wrapper:
    ``import_ways_text(synthetic_city_text(CitySpec.for_target_edges(n), seed))``.

    Example::

        result = synthetic_city_network(target_edges=1_000, seed=11)
        assert result.network.is_connected()
    """
    spec = CitySpec.for_target_edges(target_edges)
    return import_ways_text(synthetic_city_text(spec, seed), source="<synthetic>")
