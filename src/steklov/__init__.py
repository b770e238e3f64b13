"""Steklov (Dirichlet-to-Neumann) eigenvalues on weighted graphs with
boundary: spectra, extremal families, clump geometry, exhaustive
enumeration, and theorem-level certification sweeps."""

from .errors import (
    CertificationError,
    GraphError,
    HypothesesNotMetError,
    HypothesisViolatedError,
    InvalidParamsError,
    NoBoundaryError,
    NotASubgraphError,
    NotATreeError,
    NotBipartiteError,
    OutOfSupportedRangeError,
    ParseError,
    SteklovError,
)
from .graph import (
    Role,
    WeightedBoundaryGraph,
    combinatorial_boundary,
    combinatorial_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    make_graph,
    save_graph,
)
from .spectral import (
    dirichlet_steklov_spectrum,
    dtn_matrix,
    harmonic_extension,
    laplacian_spectrum,
    normal_derivative,
    steklov_spectrum,
)
from .families import (
    BroomParams,
    RootedTree,
    broom_lambda1,
    build_broom,
    build_comb,
    build_cycle,
    build_dumbbell,
    build_path,
    build_star,
    build_star_paths,
    comb_spectrum,
    lambda_value,
    minimal_broom,
    minimal_broom_total,
    rooted_path,
)
from .geometry import (
    GeometricPoint,
    clump_number,
    clump_number_at,
    nodal_domains,
    verify_nodal_theorem,
    zero_set,
)
from .clumps import (
    classify_type_AB,
    find_removal_for_clump,
    find_removal_sub_k,
    is_sub_k,
)
from .enumeration import (
    canonical_code,
    enumerate_connected_graphs,
    enumerate_trees,
    tree_code,
)
from .extremal import (
    check_monotonicity,
    check_rigidity_equivalence,
    predicted_bound,
    verify_bipartite_top,
    verify_extremal,
    verify_lambda1_bound,
    verify_positivity,
    verify_reg_star,
    verify_sigma2_tree,
    verify_sigma_lambda,
    verify_steklov_clump,
)

__version__ = "1.0.0"
