"""Road-network substrate: graph model, network record, edge table, sequences, oracles, builders."""

from repro.utils import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.network.graph": (
            "RoadNetwork",
            "Node",
            "Edge",
            "NetworkLocation",
            "CLOSED_EDGE_WEIGHT",
        ),
        "repro.network.edge_table": ("EdgeTable",),
        "repro.network.record": ("write_network", "encode_network", "decode_network"),
        "repro.network.csr": ("CSRGraph", "csr_snapshot"),
        "repro.network.sequences": ("SequenceTable", "SequenceInfo"),
        "repro.network.kernels": (
            "KernelSpec",
            "KERNEL_CSR",
            "KERNEL_NATIVE",
            "DEFAULT_KERNEL",
            "registered_kernels",
            "available_kernels",
            "resolve_kernel",
            "validate_kernel",
        ),
        "repro.network.native": ("native_available",),
        "repro.network.builders": (
            "build_network",
            "grid_network",
            "city_network",
            "linear_network",
            "star_network",
            "subdivide_edges",
            "remove_random_edges",
        ),
        "repro.network.distance": (
            "node_distances",
            "multi_source_node_distances",
            "network_distance",
            "shortest_path_nodes",
            "brute_force_knn",
            "brute_force_range",
            "brute_force_aggregate_knn",
            "brute_force_object_distances",
            "location_sources",
            "eccentricity",
        ),
        "repro.network.io": (
            "load_network",
            "save_network",
            "load_node_edge_files",
            "save_node_edge_files",
        ),
    },
)
