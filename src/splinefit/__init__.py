"""Reweighted least-squares spline fitting.

Weighted least squares in any finite-dimensional spline space, its exact
decomposition into a convex combination of subset interpolants, and
marker-driven reweighted fitting for curves and adaptive hierarchical
surfaces.
"""

from .errors import (
    ModelFormatError,
    NumericError,
    PointCloudFormatError,
    RankDeficiencyError,
    SingularSystemError,
    StagnationError,
    SubsetCapError,
)
from .fitting import (
    FitConfig,
    FitReport,
    IterationRecord,
    adaptive_rwls_fit,
    curve_point_cloud,
    evaluate_3peaks,
    evaluate_test_curves,
    feature_weighted_sites,
    init_markers_from_ls,
    rwls_fit,
    top_gradient_markers,
    update_weights,
)
from .hierarchical import (
    CellId,
    HierarchicalSpace,
    build_hierarchical,
    collocation_hierarchical,
    dyadic_refine_space,
    mark_cells,
)
from .interp_decomposition import (
    Decomposition,
    SubsetCertificate,
    decompose,
    interpolate_subset,
    irls_solve,
    weight_limit_solution,
)
from .spline_core import (
    KnotVector,
    SplineFunction,
    SplineSpace,
    WeightedPointCloud,
    averaging_knots,
    collocation_matrix,
    make_open_knot_vector,
    parameterize,
    schoenberg_whitney_admissible,
    uniform_interior,
)
from .wls import (
    assemble_thin_plate,
    solve_penalized_wls,
    solve_wls,
    weighted_solver,
)

__version__ = "0.1.0"

__all__ = [
    "CellId",
    "Decomposition",
    "FitConfig",
    "FitReport",
    "HierarchicalSpace",
    "IterationRecord",
    "KnotVector",
    "ModelFormatError",
    "NumericError",
    "PointCloudFormatError",
    "RankDeficiencyError",
    "SingularSystemError",
    "SplineFunction",
    "SplineSpace",
    "StagnationError",
    "SubsetCapError",
    "SubsetCertificate",
    "WeightedPointCloud",
    "adaptive_rwls_fit",
    "assemble_thin_plate",
    "averaging_knots",
    "build_hierarchical",
    "collocation_hierarchical",
    "collocation_matrix",
    "curve_point_cloud",
    "decompose",
    "dyadic_refine_space",
    "evaluate_3peaks",
    "evaluate_test_curves",
    "feature_weighted_sites",
    "init_markers_from_ls",
    "interpolate_subset",
    "irls_solve",
    "main",
    "make_open_knot_vector",
    "mark_cells",
    "parameterize",
    "rwls_fit",
    "schoenberg_whitney_admissible",
    "solve_penalized_wls",
    "solve_wls",
    "top_gradient_markers",
    "uniform_interior",
    "update_weights",
    "weight_limit_solution",
    "weighted_solver",
]

from .cli_io import main  # noqa: E402  (CLI import last: it pulls in everything above)
