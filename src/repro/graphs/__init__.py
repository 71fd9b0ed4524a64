"""Graph substrate: CSR graphs, family generators, spectral + structural tools."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "graph": ["Graph", "SharedGraph", "SharedSegment"],
        "generators": [
            "barbell_graph",
            "binary_tree",
            "caterpillar_graph",
            "complete_graph",
            "cycle_graph",
            "erdos_renyi_graph",
            "grid_graph",
            "hypercube_graph",
            "lollipop_graph",
            "margulis_expander",
            "path_graph",
            "petersen_graph",
            "random_regular_graph",
            "ring_of_cliques",
            "star_graph",
            "torus_graph",
        ],
        "io": ["parse_edge_list", "read_edge_list"],
        "properties": [
            "GraphSummary",
            "connected_components",
            "diameter",
            "eccentricities",
            "eccentricity",
            "is_bipartite",
            "summarize",
        ],
        "spectral": [
            "SpectralProfile",
            "cheeger_bounds",
            "conductance_of_cut",
            "eigenvalue_gap",
            "random_walk_spectrum",
            "second_eigenvalue",
            "spectral_profile",
            "sweep_conductance",
            "transition_matrix",
        ],
        "validation": [
            "check_vertex",
            "check_vertex_set",
            "require_connected",
        ],
    },
)
