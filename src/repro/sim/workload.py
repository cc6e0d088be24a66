"""Workload configuration: the parameter space of Table 2.

A :class:`WorkloadConfig` bundles every knob of the paper's experimental
setup — object/query cardinalities and distributions, k, the three agilities,
the two speeds, the network size and the number of timestamps — together
with the scaling conveniences this reproduction adds (every benchmark runs a
scaled-down default but accepts the paper's full-size values unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.exceptions import SimulationError
from repro.utils.validation import (
    require_fraction,
    require_non_negative,
    require_positive_int,
)

#: Paper default values (Table 2).
PAPER_DEFAULTS: Dict[str, object] = {
    "num_objects": 100_000,
    "num_queries": 5_000,
    "object_distribution": "uniform",
    "query_distribution": "gaussian",
    "k": 50,
    "edge_agility": 0.04,
    "object_speed": 1.0,
    "object_agility": 0.10,
    "query_speed": 1.0,
    "query_agility": 0.10,
    "network_edges": 10_000,
    "timestamps": 100,
}


@dataclass(frozen=True)
class WorkloadConfig:
    """One experimental setting (a row of Table 2 plus scaling knobs)."""

    #: number of data objects (paper default 100K)
    num_objects: int = 2_000
    #: number of continuous queries (paper default 5K)
    num_queries: int = 100
    #: initial object distribution: "uniform" or "gaussian"
    object_distribution: str = "uniform"
    #: initial query distribution: "uniform" or "gaussian"
    query_distribution: str = "gaussian"
    #: number of nearest neighbors per query (paper default 50)
    k: int = 10
    #: fraction of edges whose weight changes per timestamp (paper default 4%)
    edge_agility: float = 0.04
    #: distance covered by a moving object, in average edge lengths (default 1)
    object_speed: float = 1.0
    #: fraction of objects that move per timestamp (paper default 10%)
    object_agility: float = 0.10
    #: distance covered by a moving query, in average edge lengths (default 1)
    query_speed: float = 1.0
    #: fraction of queries that move per timestamp (paper default 10%)
    query_agility: float = 0.10
    #: approximate number of network edges (paper default 10K)
    network_edges: int = 2_000
    #: how many timestamps the monitoring runs for (paper: 100)
    timestamps: int = 10
    #: standard deviation of the Gaussian placements, fraction of half-diagonal
    gaussian_std_fraction: float = 0.10
    #: mobility model: "random_walk" (default) or "brinkhoff"
    mobility_model: str = "random_walk"
    #: RNG seed for the whole scenario
    seed: int = 20060912

    # ------------------------------------------------------------------
    # validation and derivation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        require_positive_int(self.num_objects, "num_objects")
        require_positive_int(self.num_queries, "num_queries")
        require_positive_int(self.k, "k")
        require_positive_int(self.network_edges, "network_edges")
        require_positive_int(self.timestamps, "timestamps")
        require_fraction(self.edge_agility, "edge_agility")
        require_fraction(self.object_agility, "object_agility")
        require_fraction(self.query_agility, "query_agility")
        require_non_negative(self.object_speed, "object_speed")
        require_non_negative(self.query_speed, "query_speed")
        require_fraction(self.gaussian_std_fraction, "gaussian_std_fraction")
        if self.object_distribution.lower() not in ("uniform", "gaussian"):
            raise SimulationError(
                f"unknown object distribution {self.object_distribution!r}"
            )
        if self.query_distribution.lower() not in ("uniform", "gaussian"):
            raise SimulationError(
                f"unknown query distribution {self.query_distribution!r}"
            )
        if self.mobility_model.lower() not in ("random_walk", "brinkhoff"):
            raise SimulationError(f"unknown mobility model {self.mobility_model!r}")

    def with_overrides(self, **overrides) -> "WorkloadConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    @classmethod
    def paper_scale(cls, **overrides) -> "WorkloadConfig":
        """The paper's full-size default setting (Table 2), optionally overridden.

        Its 100 timestamps take about six minutes in pure Python: one
        :meth:`~repro.sim.simulator.Simulator.run` of all three monitors
        spent 73 s in OVH, 123 s in IMA and 131 s in GMA after a 1 s
        set-up (2-vCPU x86-64 VM, CPython 3.11).  Benchmarks use the
        scaled defaults of the plain constructor and document the scaling
        factor.
        """
        values = dict(PAPER_DEFAULTS)
        values.update(overrides)
        return cls(
            num_objects=int(values["num_objects"]),
            num_queries=int(values["num_queries"]),
            object_distribution=str(values["object_distribution"]),
            query_distribution=str(values["query_distribution"]),
            k=int(values["k"]),
            edge_agility=float(values["edge_agility"]),
            object_speed=float(values["object_speed"]),
            object_agility=float(values["object_agility"]),
            query_speed=float(values["query_speed"]),
            query_agility=float(values["query_agility"]),
            network_edges=int(values["network_edges"]),
            timestamps=int(values["timestamps"]),
            seed=int(values.get("seed", 20060912)),
        )

    def describe(self) -> Dict[str, object]:
        """Plain-dict view used by the reporting module."""
        return {
            "N": self.num_objects,
            "Q": self.num_queries,
            "object_distribution": self.object_distribution,
            "query_distribution": self.query_distribution,
            "k": self.k,
            "f_edg": self.edge_agility,
            "v_obj": self.object_speed,
            "f_obj": self.object_agility,
            "v_qry": self.query_speed,
            "f_qry": self.query_agility,
            "edges": self.network_edges,
            "timestamps": self.timestamps,
            "mobility": self.mobility_model,
            "seed": self.seed,
        }
