"""Output verification of the e2e benchmark: oracle sample, deltas, recovery.

The driver keeps its own mirror of the world the service should be in
(edge weights, object and query locations); :class:`Oracle` materialises
that mirror into a private network + edge table and answers k-NN by brute
force, :func:`check_results` compares a ``results()`` reply against it,
:func:`check_delta` checks one pushed delta against its tick report and
:func:`results_fingerprint` is the byte string the post-recovery identity
check compares.  Every function returns the list of problems it found; an
empty list means the check passed.
"""

from __future__ import annotations

import pickle
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.results import results_equal
from repro.network.distance import brute_force_knn
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork

#: How many queries the brute-force oracle re-answers per verification.
ORACLE_SAMPLE = 32


class Oracle:
    """The driver's materialised mirror, answering k-NN by brute force."""

    def __init__(self, network: RoadNetwork, objects: Dict[int, NetworkLocation]) -> None:
        # A private copy: the oracle rewrites weights, and the same inputs
        # may be driven through a second (traced) service afterwards.
        self._network = network.copy()
        self._edge_table = EdgeTable(self._network, build_spatial_index=False)
        for object_id, location in objects.items():
            self._edge_table.insert_object(object_id, location)

    def update(
        self, weights: Dict[int, float], objects: Dict[int, NetworkLocation]
    ) -> None:
        """Apply net changes: latest weight per edge, latest location per object."""
        for edge_id, weight in weights.items():
            self._network.set_edge_weight(edge_id, weight)
        for object_id, location in objects.items():
            self._edge_table.move_object(object_id, location)

    def knn(self, location: NetworkLocation, k: int) -> List[Tuple[int, float]]:
        """Ground-truth k nearest objects of *location*."""
        return brute_force_knn(self._network, self._edge_table, location, k)


def oracle_sample(query_ids: Iterable[int]) -> List[int]:
    """The fixed sample the oracle re-answers: the lowest live query ids."""
    return sorted(query_ids)[:ORACLE_SAMPLE]


def check_results(
    oracle: Oracle,
    results: Optional[dict],
    queries: Dict[int, Tuple[NetworkLocation, int]],
) -> Tuple[int, List[str]]:
    """Compare a ``results()`` reply with the mirror: ``(checks, problems)``.

    One check for the set of live query ids plus one per sampled query
    (its ``k`` and, rank by rank, its distance profile against the brute
    force answer — ``results_equal``, which tolerates ties in ids).
    """
    sample = oracle_sample(queries)
    checks = 1 + len(sample)
    if not isinstance(results, dict):
        return checks, [f"results reply is {type(results).__name__}, not a dict"]
    problems: List[str] = []
    if set(results) != set(queries):
        missing = sorted(set(queries) - set(results))[:3]
        extra = sorted(set(results) - set(queries))[:3]
        problems.append(f"live query ids differ: missing {missing}, unexpected {extra}")
    for query_id in sample:
        result = results.get(query_id)
        if result is None:
            problems.append(f"query {query_id}: no result")
            continue
        location, k = queries[query_id]
        truth = oracle.knn(location, k)
        if result.k != k or not results_equal(result.neighbors, truth):
            problems.append(
                f"query {query_id}: got {list(result.neighbors)[:3]}... "
                f"expected {truth[:3]}..."
            )
    return checks, problems


def check_delta(
    delta: Optional[tuple],
    report,
    expected_timestamp: int,
    live: Set[int],
    terminated: Iterable[int],
) -> List[str]:
    """Problems of one pushed delta against the tick that produced it.

    Deltas must arrive one per tick, in timestamp order, cover every live
    query the report lists as changed, and announce exactly the queries
    terminated this tick as ``None``.
    """
    if delta is None:
        return [f"tick {expected_timestamp}: no delta arrived"]
    timestamp, changes = delta
    problems: List[str] = []
    if timestamp != expected_timestamp:
        problems.append(
            f"delta for timestamp {timestamp} arrived, expected {expected_timestamp}"
        )
    if report is not None:
        if report.timestamp != expected_timestamp:
            problems.append(
                f"tick report is for timestamp {report.timestamp}, "
                f"expected {expected_timestamp}"
            )
        uncovered = (set(report.changed_queries) & live) - set(changes)
        if uncovered:
            problems.append(
                f"tick {expected_timestamp}: delta misses changed queries "
                f"{sorted(uncovered)[:3]}"
            )
    announced = {query_id for query_id, result in changes.items() if result is None}
    if announced != set(terminated):
        problems.append(
            f"tick {expected_timestamp}: terminated {sorted(terminated)} but "
            f"delta announced {sorted(announced)} as None"
        )
    return problems


def results_fingerprint(results: dict) -> bytes:
    """Canonical bytes of a ``results()`` reply (floats bit-exact)."""
    return pickle.dumps(sorted(results.items()), protocol=pickle.HIGHEST_PROTOCOL)
