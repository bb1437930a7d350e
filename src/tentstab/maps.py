"""Piecewise-affine maps over convex polygonal partitions.

Provides the two-dimensional tent family on the triangle with vertices
(0,0), (2,0), (1,1), power maps built by itinerary pullback on octagon
bounds, and machine certification of the expansion, distortion, and
long-branch conditions together with the combined contraction constants
(lambda, K, K1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CellExplosion, OutsideRegion, ParameterOutOfRange
from .geom2d import EPS_GEOM, AffineMap2, ConvexPolygon, Matrix2, Point2, affine_image, intersect
from .geom2d import matrix_norms, _area, _close, _image_plan, _inradii, _measured, _min_angles
from .geom2d import _octagons, _polygons, _vertices
from .ioutil import fmt, json_number

# Lower end of the tent parameters that the sweeps, the benchmark and the
# tests work over, (1/sqrt(2)) * (sqrt(2)+1)^(1/4): the interval the
# two-dimensional tent family is studied on.  It does not bound the cube's
# branch count: tent_power(t, 3) has eight branches at 60 points of
# [0.7072, 1], every t with sqrt(2) t > 1 that was checked, and four at
# t = 0.70 (tests/test_maps.py).
TENT_T_MIN = math.sqrt(math.sqrt(math.sqrt(2.0) + 1.0)) / math.sqrt(2.0)

MAX_CELLS = 10**6  # hard budget for branches, grid squares and arrangement cells

# The tent family's invariant triangle; it does not depend on t.
TENT_REGION = ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (1.0, 1.0)))


class Branch(NamedTuple):
    """One affine branch: a convex domain and the bijection acting on it."""

    domain: ConvexPolygon
    map: AffineMap2
    jacobian_abs: float


@dataclass(frozen=True)
class PiecewiseMap:
    """Finite piecewise-affine map of a convex region onto itself.

    ``param_t`` and ``power`` carry the tent-family parameter and iteration
    order when known, so certificates can report the family's closed-form
    expansion value alongside the measured norms.  Both are keyword-only.
    """

    region: ConvexPolygon
    branches: tuple[Branch, ...]
    param_t: float | None = field(default=None, kw_only=True)
    power: int = field(default=1, kw_only=True)


class NormConvention(enum.Enum):
    SPECTRAL = "Spectral"
    MAX_ENTRY = "MaxEntry"
    PAPER_FORMULA = "PaperFormula"


# The ConditionCertificate field holding each convention's sigma.
_SIGMA_FIELD = {
    NormConvention.SPECTRAL: "sigma_spectral",
    NormConvention.MAX_ENTRY: "sigma_max_entry",
    NormConvention.PAPER_FORMULA: "sigma_paper",
}


class ExpansionReport(NamedTuple):
    sigma_spectral: float
    sigma_max_entry: float


class BranchGeometry(NamedTuple):
    """Long-branch measurements for one branch (domain and image)."""

    index: int
    theta_min_domain: float
    theta_min_image: float
    inradius_domain: float
    inradius_image: float
    beta: float
    rho: float


class LongBranchReport(NamedTuple):
    beta: float
    rho: float
    per_branch: tuple[BranchGeometry, ...]


@dataclass(frozen=True)
class ConditionCertificate:
    """Expansion/distortion/long-branch constants with a pass verdict.

    sigma_* report the contraction of inverse branch derivatives under
    three conventions: the largest singular value, the largest matrix
    entry, and the family's closed-form per-step value (1/(2t))^power.
    The selected convention picks the sigma behind lambda, K1 and the
    verdict; ``dataclasses.replace(cert, norm_convention=c)`` reads the
    same measurements under another convention.
    """

    t: float
    power: int
    sigma_spectral: float
    sigma_max_entry: float
    sigma_paper: float
    D: float
    beta: float
    rho: float
    K: float
    norm_convention: NormConvention

    @property
    def lam(self) -> float:
        """Contraction factor sigma * (1 + 1/beta) under the selected convention."""
        sigma = getattr(self, _SIGMA_FIELD[self.norm_convention])
        return sigma * (1.0 + 1.0 / self.beta)

    @property
    def K1(self) -> float:
        """K / (1 - lambda); infinite when lambda >= 1."""
        lam = self.lam
        return self.K / (1.0 - lam) if lam < 1.0 else math.inf

    @property
    def satisfied(self) -> bool:
        """lambda < 1 with finite positive beta, rho and spectral sigma."""
        return (
            self.lam < 1.0
            and 0.0 < self.beta < math.inf
            and 0.0 < self.rho < math.inf
            and 0.0 < self.sigma_spectral < math.inf
        )

    def to_json(self) -> str:
        pairs = [
            ("t", fmt(self.t)),
            ("power", str(self.power)),
            ("sigma_spectral", fmt(self.sigma_spectral)),
            ("sigma_max_entry", fmt(self.sigma_max_entry)),
            ("sigma_paper", fmt(self.sigma_paper)),
            ("D", fmt(self.D)),
            ("beta", fmt(self.beta)),
            ("rho", fmt(self.rho)),
            ("lambda", json_number(self.lam)),
            ("K", fmt(self.K)),
            ("K1", json_number(self.K1)),
            ("norm_convention", f'"{self.norm_convention.value}"'),
            ("satisfied", "true" if self.satisfied else "false"),
        ]
        body = ",\n".join(f'  "{k}": {v}' for k, v in pairs)
        return "{\n" + body + "\n}"


def check_tent_parameter(t: float) -> None:
    """Reject a tent parameter outside (0, 1], NaN included."""
    if not (0.0 < t <= 1.0) or not math.isfinite(t):
        raise ParameterOutOfRange(f"tent parameter t={t!r} outside (0, 1]")


def make_tent2d(t: float) -> PiecewiseMap:
    """Two-branch tent map (x,y) -> t*(x+y, x-y) / t*(2-x+y, 2-x-y).

    Acts on the triangle (0,0), (2,0), (1,1); the two branch domains meet
    along the segment x = 1 and each branch contracts inverse derivatives
    by 1/(2t) in the max-entry sense.
    """
    check_tent_parameter(t)
    squares = [ConvexPolygon(((x, 0.0), (x + 1.0, 0.0), (x + 1.0, 1.0), (x, 1.0))) for x in (0.0, 1.0)]
    left, right = (intersect(sq, TENT_REGION) for sq in squares)  # the region cut at x = 1
    jac = 2.0 * t * t
    branches = (
        Branch(left, AffineMap2(Matrix2(t, t, t, -t), (0.0, 0.0)), jac),
        Branch(right, AffineMap2(Matrix2(-t, t, -t, -t), (2.0 * t, 2.0 * t)), jac),
    )
    return PiecewiseMap(TENT_REGION, branches, param_t=t, power=1)


def apply(m: PiecewiseMap, p) -> Point2:
    """Image of a point; shared boundaries go to the lowest-index branch."""
    if not m.region.contains(p, EPS_GEOM):
        raise OutsideRegion(f"point {tuple(p)!r} is not in the region")
    for tol in (EPS_GEOM, 1e-7):
        for branch in m.branches:
            if branch.domain.contains(p, tol):
                return branch.map.apply(p)
    raise OutsideRegion(
        f"point {tuple(p)!r} lies in the region but in no branch domain"
    )


def power(m: PiecewiseMap, n: int) -> PiecewiseMap:
    """n-fold composition with branch domains from itinerary pullback.

    A length-n itinerary (i_1, ..., i_n) survives when the intersection of
    its successive affine preimages keeps positive area; branches are
    ordered by itinerary and compose exactly (linear parts multiply).  Each
    step meets every surviving itinerary with the preimages of all branch
    domains under the float inverse of its composed map, in one batch on
    geom2d's octagon bounds: nothing is clipped, merged or dropped as a
    sliver.  NotOctilinear, before composing, where a branch domain or
    linear part leaves the directions x, y, x + y and x - y.
    """
    if n < 1:
        raise ParameterOutOfRange(f"power must be >= 1, got {n}")
    if n == 1:
        return m
    # k ** n bounds the branch count; capping the exponent at the budget's
    # bit length keeps the check small and decides it the same way for k >= 2.
    k = len(m.branches)
    if k ** min(n, MAX_CELLS.bit_length()) > MAX_CELLS:
        raise CellExplosion(
            f"power {n} of a map with {k} branches may need {k}^{n} branches, "
            f"more than the budget of {MAX_CELLS}"
        )
    domains = _octagons([b.domain for b in m.branches], "branch domain")
    # A domain bound on the region's edge holds on every image of the region;
    # its pullback could only cut an item short by a rounding error.
    inner = np.where(domains == _octagons([m.region], "region"), -np.inf, domains)
    bounds, amaps = domains, [b.map for b in m.branches]
    for _ in range(n - 1):  # (item, branch) pairs, item-major: itinerary order
        perm, scale, shift = _image_plan([amap.inverse() for amap in amaps])
        item, b = np.divmod(np.arange(len(amaps) * k), k)
        pulled = scale[:, item] * inner[perm[:, item], b] + shift[:, item]
        pieces = _close(np.maximum(bounds[:, item], pulled))
        live = np.flatnonzero(_area(pieces) > 0.0)
        bounds = pieces[:, live]
        pairs = zip(item[live].tolist(), b[live].tolist())
        amaps = [m.branches[j].map.compose(amaps[i]) for i, j in pairs]
    polys = _polygons(*_vertices(bounds), _area(bounds))
    branches = tuple(Branch(p, amap, abs(amap.linear.det())) for p, amap in zip(polys, amaps))
    return PiecewiseMap(m.region, branches, param_t=m.param_t, power=m.power * n)


def verify_expansion(m: PiecewiseMap) -> ExpansionReport:
    """Worst-case norm of inverse branch linear parts, both conventions."""
    sigma_spectral = 0.0
    sigma_max_entry = 0.0
    for branch in m.branches:
        norms = matrix_norms(branch.map.linear.inverse())
        sigma_spectral = max(sigma_spectral, norms["spectral"])
        sigma_max_entry = max(sigma_max_entry, norms["max_entry"])
    return ExpansionReport(sigma_spectral, sigma_max_entry)


def verify_distortion(m: PiecewiseMap) -> float:
    """Distortion bound; identically 0 because branch Jacobians are constant."""
    return 0.0


def estimate_long_branches(m: PiecewiseMap) -> LongBranchReport:
    """Angle and inward-width constants from branch domains and images.

    For each branch, the inward field is the edge normal on edge interiors
    and the angle bisector at corners, so the worst sine of the angle to a
    boundary tangent is sin(theta_min / 2); the inward reach is half the
    inradius, which keeps the inward segments of a convex set disjoint.
    Affine branches preserve neither quantity in general, so domains and
    images are both measured and the minima reported: every domain and
    image in one vertex batch, by geom2d._min_angles and geom2d.inradius's
    batched form, geom2d._inradii.
    """
    polys = [p for b in m.branches for p in (b.domain, affine_image(b.map, b.domain))]
    batch = _measured(polys, "interior angles need")
    angles, radii = _min_angles(*batch).tolist(), _inradii(*batch).tolist()
    records = [  # domain i in row 2i, its image in row 2i + 1
        BranchGeometry(i, td, ti, rd, ri, math.sin(min(td, ti) / 2.0), min(rd, ri) / 2.0)
        for i, (td, ti, rd, ri) in enumerate(zip(angles[::2], angles[1::2], radii[::2], radii[1::2]))
    ]
    return LongBranchReport(
        beta=min(r.beta for r in records),
        rho=min(r.rho for r in records),
        per_branch=tuple(records),
    )


def certify(
    m: PiecewiseMap,
    convention: NormConvention = NormConvention.PAPER_FORMULA,
) -> ConditionCertificate:
    """Assemble the contraction certificate lambda = sigma*(1 + 1/beta),
    K = D + 1/(beta*rho) + D/beta, K1 = K/(1 - lambda).

    The verdict applies to the selected norm convention; all three sigma
    values are reported so conventions can be compared side by side.
    """
    if m.param_t is None:
        raise ParameterOutOfRange(
            "certificate needs the tent-family parameter t (the map has none)"
        )
    expansion = verify_expansion(m)
    distortion = verify_distortion(m)
    long_branches = estimate_long_branches(m)
    beta = long_branches.beta
    rho = long_branches.rho
    return ConditionCertificate(
        t=m.param_t,
        power=m.power,
        sigma_spectral=expansion.sigma_spectral,
        sigma_max_entry=expansion.sigma_max_entry,
        sigma_paper=(1.0 / (2.0 * m.param_t)) ** m.power,
        D=distortion,
        beta=beta,
        rho=rho,
        K=distortion + 1.0 / (beta * rho) + distortion / beta,
        norm_convention=convention,
    )


def tent_power(t: float, n: int) -> PiecewiseMap:
    """Convenience: the n-th power of the tent map at parameter t."""
    return power(make_tent2d(t), n)
