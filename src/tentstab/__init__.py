"""Transfer-operator toolkit for planar piecewise-affine expanding maps.

Core pieces: convex polygon geometry (geom2d), piecewise-affine maps with
the two-dimensional tent family and contraction certificates (maps),
piecewise-constant densities with exact pushforward, variation, and Ulam
discretization (density), numerical studies (experiments), and a CLI
(cli).
"""

from . import errors
from .geom2d import (
    EPS_AREA,
    EPS_GEOM,
    AffineMap2,
    ConvexPolygon,
    Matrix2,
    Point2,
    affine_image,
    inradius,
    intersect,
    matrix_norms,
)
from .maps import (
    TENT_T_MIN,
    Branch,
    ConditionCertificate,
    NormConvention,
    PiecewiseMap,
    apply,
    certify,
    estimate_long_branches,
    make_tent2d,
    power,
    tent_power,
    verify_distortion,
    verify_expansion,
)
from .density import (
    DensityVector,
    PiecewisePolyDensity,
    UlamGrid,
    UlamOperator,
    build_ulam,
    cesaro_fixed_density,
    l1_distance,
    lp_norm,
    push_forward,
    ulam_fixed,
    uniform_density,
    indicator_density,
    variation,
)
from .experiments import (
    LYRow,
    OrbitStats,
    SweepRow,
    birkhoff_average,
    ly_check,
    lyapunov_exponent,
    orbit_stats,
    stability_sweep,
    tent1d_ulam,
)

__version__ = "0.1.0"
