"""Steklov (Dirichlet-to-Neumann) eigenvalues on weighted graphs with
boundary: spectra, extremal families, clump geometry, exhaustive
enumeration, and theorem-level certification sweeps.

``import steklov`` loads no submodule. Each public name below, and each
layer (``steklov.enumeration``, ``steklov.extremal``, ...), is imported on
first access and then kept in the package namespace, so a process that
only enumerates classes never loads numpy or the spectral layers."""

from importlib import import_module as _import_module

__version__ = "1.0.0"

_LAYERS = {
    "errors": (
        "CertificationError", "GraphError", "HypothesesNotMetError",
        "HypothesisViolatedError", "InvalidParamsError", "NoBoundaryError",
        "NotASubgraphError", "NotATreeError", "NotBipartiteError",
        "OutOfSupportedRangeError", "ParseError", "SteklovError",
    ),
    "graph": (
        "Role", "WeightedBoundaryGraph", "combinatorial_boundary",
        "combinatorial_graph", "graph_from_dict", "graph_to_dict", "load_graph",
        "make_graph", "save_graph",
    ),
    "spectral": (
        "dtn_matrix", "harmonic_extension", "laplacian_spectrum",
        "normal_derivative", "steklov_spectrum",
    ),
    "exact": ("QuadraticSurd", "inertia_counts"),
    "families": (
        "BroomParams", "RootedTree", "broom_lambda1", "build_broom", "build_comb",
        "build_cycle", "build_dumbbell", "build_path", "build_star", "build_star_paths",
        "comb_spectrum", "lambda_value", "minimal_broom", "minimal_broom_total",
        "rooted_path",
    ),
    "geometry": (
        "GeometricPoint", "clump_number", "clump_number_at", "nodal_domains",
        "verify_nodal_theorem", "zero_set",
    ),
    "clumps": (
        "classify_type_AB", "find_removal_for_clump", "find_removal_sub_k", "is_sub_k",
    ),
    "enumeration": (
        "canonical_code", "enumerate_connected_graphs", "enumerate_trees", "tree_code",
    ),
    "extremal": (
        "check_monotonicity", "check_rigidity_equivalence", "predicted_bound",
        "verify_bipartite_top", "verify_extremal", "verify_lambda1_bound",
        "verify_positivity", "verify_reg_star", "verify_sigma2_tree",
        "verify_sigma_lambda", "verify_steklov_clump",
    ),
}
# public name -> the layer that defines it; a layer's own name maps to None
_SOURCE = {name: layer for layer, names in _LAYERS.items() for name in names}
_SOURCE.update(dict.fromkeys(_LAYERS))

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = _SOURCE[name]
    if layer is None:  # the import binds the submodule in this namespace
        return _import_module(f"{__name__}.{name}")
    value = getattr(_import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
