"""Saving and loading road networks in a simple text format.

Two formats are supported:

* the library's own ``.rnet`` format — a single text file listing nodes and
  edges, round-trips everything :class:`RoadNetwork` stores;
* the two-file *node/edge* format used by many public road-network datasets
  (and by the Brinkhoff generator's input maps): a ``.cnode`` file with
  ``node_id x y`` lines and a ``.cedge`` file with
  ``edge_id start end weight`` lines.  When real datasets are available this
  loader lets the experiments run on them unchanged.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Union

from repro.exceptions import NetworkError
from repro.network.graph import RoadNetwork

PathLike = Union[str, os.PathLike]

_RNET_HEADER = "# repro road network v1"


def save_network(network: RoadNetwork, path: PathLike) -> None:
    """Write *network* to *path* in the ``.rnet`` text format.

    Example::

        save_network(network, "city.rnet")
    """
    lines = [_RNET_HEADER]
    lines.append(f"nodes {network.node_count}")
    for node in sorted(network.nodes(), key=lambda n: n.node_id):
        lines.append(f"n {node.node_id} {node.x!r} {node.y!r}")
    lines.append(f"edges {network.edge_count}")
    for edge in sorted(network.edges(), key=lambda e: e.edge_id):
        oneway = 1 if edge.oneway else 0
        lines.append(
            f"e {edge.edge_id} {edge.start} {edge.end} {edge.weight!r} "
            f"{edge.base_weight!r} {oneway}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_network(path: PathLike) -> RoadNetwork:
    """Load a network previously written by :func:`save_network`.

    Raises:
        NetworkError: if the file is malformed.

    Example::

        network = load_network("city.rnet")
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != _RNET_HEADER:
        raise NetworkError(f"{path}: not a repro road network file")
    network = RoadNetwork()
    for line in lines[1:]:
        if line.startswith("nodes ") or line.startswith("edges "):
            continue
        parts = line.split()
        try:
            if parts[0] == "n":
                network.add_node(int(parts[1]), float(parts[2]), float(parts[3]))
            elif parts[0] == "e":
                edge_id = int(parts[1])
                network.add_edge(
                    edge_id,
                    int(parts[2]),
                    int(parts[3]),
                    float(parts[5]),
                    oneway=bool(int(parts[6])),
                )
                network.set_edge_weight(edge_id, float(parts[4]))
            else:
                raise NetworkError(f"{path}: unknown record type {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise NetworkError(f"{path}: malformed line {line!r}") from exc
    return network


def load_node_edge_files(node_path: PathLike, edge_path: PathLike) -> RoadNetwork:
    """Load a network from the public ``.cnode`` / ``.cedge`` pair format.

    Node lines: ``node_id x y``.  Edge lines: ``edge_id start end weight``
    (weight optional; Euclidean length is used when missing).

    Raises:
        NetworkError: if either file is malformed.
    """
    network = RoadNetwork()
    for line_no, line in enumerate(_data_lines(node_path), start=1):
        parts = line.split()
        if len(parts) < 3:
            raise NetworkError(f"{node_path}:{line_no}: expected 'id x y', got {line!r}")
        try:
            network.add_node(int(parts[0]), float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise NetworkError(f"{node_path}:{line_no}: malformed node line") from exc
    for line_no, line in enumerate(_data_lines(edge_path), start=1):
        parts = line.split()
        if len(parts) < 3:
            raise NetworkError(
                f"{edge_path}:{line_no}: expected 'id start end [weight]', got {line!r}"
            )
        try:
            edge_id, start, end = int(parts[0]), int(parts[1]), int(parts[2])
            weight = float(parts[3]) if len(parts) > 3 else None
            network.add_edge(edge_id, start, end, weight)
        except ValueError as exc:
            raise NetworkError(f"{edge_path}:{line_no}: malformed edge line") from exc
    return network


def save_node_edge_files(
    network: RoadNetwork, node_path: PathLike, edge_path: PathLike
) -> None:
    """Write *network* in the two-file node/edge format."""
    node_lines = [
        f"{node.node_id} {node.x!r} {node.y!r}"
        for node in sorted(network.nodes(), key=lambda n: n.node_id)
    ]
    edge_lines = [
        f"{edge.edge_id} {edge.start} {edge.end} {edge.weight!r}"
        for edge in sorted(network.edges(), key=lambda e: e.edge_id)
    ]
    Path(node_path).write_text("\n".join(node_lines) + "\n", encoding="utf-8")
    Path(edge_path).write_text("\n".join(edge_lines) + "\n", encoding="utf-8")


def _data_lines(path: PathLike) -> Iterable[str]:
    """Yield non-empty, non-comment lines from a text file."""
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield stripped
