"""Tight torus-link constructions from toroidal helices, with ropelength
bounds and embedding verification.

The package builds T(pQ, Q) torus links (and their threaded doubles) out of
helices wound on nested tori, measures the resulting polygonal geometry
(clearance, curvature, linking numbers), and compares normalized ropelength
against lower bounds and limiting three-quarter-power coefficients.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundsReport,
    asymptotic_coefficients,
    lower_bound_report,
    wegner_hull_length,
)
from .construct import (
    ConstructionReport,
    OverlapError,
    Shell,
    TorusSpec,
    analytic_length,
    build_increment_spec,
    build_optimal_spec,
    build_planar_link,
    construction_report,
    donut_double,
    inflate_for_doubling,
    limiting_alpha,
    realize_torus,
)
from .curves import (
    PolyCurve,
    min_curvature_radius,
    rotation_about_axis,
    sample_cylindrical_helix,
    sample_planar_curve,
    sample_toroidal_helix,
)
from .distances import (
    min_distance,
    min_distance_brute,
    min_self_distance,
    min_self_distance_brute,
    mutual_min_distance,
)
from .helices import (
    EPSILON_SAFE,
    aggregate_correction,
    cubic_min_distance,
    helix_count_estimate,
    max_helices,
    pair_min_distance,
    toroidal_correction,
)
from .io_formats import FormatError, export_geometry, import_geometry
from .linking import linking_matrix, linking_number
from .measure import LinkConfiguration, LinkMetrics, measure_link
from .optimize import (
    OptimizationProblem,
    minimize_params,
    nelder_mead,
    normalized_ropelength,
    perpendicular_variant,
    reverse_jenga,
    toroidal_pair,
    toroidal_pair_problem,
)
from .parallel import parallel_map, thread_count

__all__ = [
    "__version__",
    "BoundsReport",
    "ConstructionReport",
    "EPSILON_SAFE",
    "FormatError",
    "LinkConfiguration",
    "LinkMetrics",
    "OptimizationProblem",
    "OverlapError",
    "PolyCurve",
    "Shell",
    "TorusSpec",
    "aggregate_correction",
    "analytic_length",
    "asymptotic_coefficients",
    "build_increment_spec",
    "build_optimal_spec",
    "build_planar_link",
    "construction_report",
    "cubic_min_distance",
    "donut_double",
    "export_geometry",
    "helix_count_estimate",
    "import_geometry",
    "inflate_for_doubling",
    "limiting_alpha",
    "linking_matrix",
    "linking_number",
    "lower_bound_report",
    "max_helices",
    "measure_link",
    "min_curvature_radius",
    "min_distance",
    "min_distance_brute",
    "min_self_distance",
    "min_self_distance_brute",
    "minimize_params",
    "mutual_min_distance",
    "nelder_mead",
    "normalized_ropelength",
    "pair_min_distance",
    "parallel_map",
    "perpendicular_variant",
    "realize_torus",
    "reverse_jenga",
    "rotation_about_axis",
    "sample_cylindrical_helix",
    "sample_planar_curve",
    "sample_toroidal_helix",
    "thread_count",
    "toroidal_correction",
    "toroidal_pair",
    "toroidal_pair_problem",
    "wegner_hull_length",
]
