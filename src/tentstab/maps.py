"""Piecewise-affine maps over convex polygonal partitions.

Provides the two-dimensional tent family on the triangle with vertices
(0,0), (2,0), (1,1), power maps built by itinerary pullback, and machine
certification of the expansion, distortion, and long-branch conditions
together with the combined contraction constants (lambda, K, K1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CellExplosion, OutsideRegion, ParameterOutOfRange
from .geom2d import (
    EPS_GEOM,
    AffineMap2,
    ConvexPolygon,
    Matrix2,
    Point2,
    affine_image,
    inradius,
    intersect,
    matrix_norms,
    min_interior_angle,
)
from .ioutil import fmt, json_number

# Smallest tent parameter for which the cubed map keeps its full
# eight-branch smoothness partition: (1/sqrt(2)) * (sqrt(2)+1)^(1/4).
TENT_T_MIN = math.sqrt(math.sqrt(math.sqrt(2.0) + 1.0)) / math.sqrt(2.0)

MAX_CELLS = 10**6  # hard budget for branches, grid squares and arrangement cells


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
    expansion value alongside the measured norms.
    """

    region: ConvexPolygon
    branches: tuple[Branch, ...]
    label: str
    param_t: float | None = None
    power: int = 1


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
    region = ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (1.0, 1.0)))
    left = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    right = ConvexPolygon(((1.0, 0.0), (2.0, 0.0), (1.0, 1.0)))
    jac = 2.0 * t * t
    branches = (
        Branch(left, AffineMap2(Matrix2(t, t, t, -t), (0.0, 0.0)), jac),
        Branch(right, AffineMap2(Matrix2(-t, t, -t, -t), (2.0 * t, 2.0 * t)), jac),
    )
    return PiecewiseMap(region, branches, f"tent2d t={t:g} power=1", t, 1)


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
    ordered by itinerary and compose exactly (linear parts multiply).
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
    items = [((i,), b.domain, b.map) for i, b in enumerate(m.branches)]
    for _ in range(n - 1):
        grown = []
        for itinerary, domain, amap in items:
            ainv = amap.inverse()
            for j, branch in enumerate(m.branches):
                pulled = intersect(domain, affine_image(ainv, branch.domain))
                if not pulled.is_empty:
                    grown.append((itinerary + (j,), pulled, branch.map.compose(amap)))
        items = sorted(grown, key=lambda item: item[0])
    branches = tuple(
        Branch(domain, amap, abs(amap.linear.det())) for _, domain, amap in items
    )
    total = m.power * n
    if m.param_t is not None:
        label = f"tent2d t={m.param_t:g} power={total}"
    else:
        label = f"{m.label} power={total}"
    return PiecewiseMap(m.region, branches, label, m.param_t, total)


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
    images are both measured and the minima reported.
    """
    records = []
    for i, branch in enumerate(m.branches):
        image = affine_image(branch.map, branch.domain)
        theta_dom = min_interior_angle(branch.domain)
        theta_img = min_interior_angle(image)
        r_dom = inradius(branch.domain)
        r_img = inradius(image)
        beta = math.sin(min(theta_dom, theta_img) / 2.0)
        rho = min(r_dom, r_img) / 2.0
        records.append(
            BranchGeometry(i, theta_dom, theta_img, r_dom, r_img, beta, rho)
        )
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
