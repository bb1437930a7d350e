"""Numerical studies on the tent family.

Parameter sweep of invariant densities with L1 and weak-star gaps,
variation-growth diagnostics against the contraction certificate, orbit
statistics (Birkhoff averages, Lyapunov exponents), and a one-dimensional
interval-map oracle that exercises the same stationary-vector code path
as the 2D pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import maps as maps_mod
from .density import (
    PiecewisePolyDensity,
    UlamGrid,
    build_ulam,
    push_forward,
    stationary_masses,
    ulam_fixed,
    variation,
)
from .errors import CellExplosion, ParameterOutOfRange
from .geom2d import Point2
from .maps import (
    MAX_CELLS,
    TENT_T_MIN,
    ConditionCertificate,
    check_tent_parameter,
    make_tent2d,
    tent_power,
)

# Monomial test functions used for weak-star gaps and Birkhoff averages.
TEST_FUNCTIONS: dict[str, tuple[int, int]] = {
    "1": (0, 0),
    "x": (1, 0),
    "y": (0, 1),
    "x2": (2, 0),
    "xy": (1, 1),
    "y2": (0, 2),
}


@dataclass(frozen=True)
class SweepRow:
    t: float
    t0: float
    power: int
    resolution: int
    l1_dist: float
    weakstar_gaps: dict[str, float]
    iterations: int
    residual: float


@dataclass(frozen=True)
class LYRow:
    j: int
    variation_j: float
    bound_paper: float
    ratio: float


@dataclass(frozen=True)
class OrbitStats:
    t: float
    seed: int
    n: int
    x0: tuple[float, float]
    lyapunov: float
    birkhoff: dict[str, float]
    reseeds: int = 0


def _density_moments(grid: UlamGrid, values: np.ndarray) -> dict[str, float]:
    """Exact integrals of the monomial test functions against a grid density."""
    return dict(zip(TEST_FUNCTIONS, grid.moments(values, TEST_FUNCTIONS.values())))


def stability_sweep(
    t0: float,
    ts: Sequence[float],
    resolution: int,
    power: int = 1,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> list[SweepRow]:
    """Invariant-density distances between parameter t and reference t0.

    For each t the Ulam fixed density is extracted on the shared grid; the
    row reports the L1 distance to the t0 density and the gaps of exactly
    integrated monomial observables.  Rows are ordered by t.
    """
    if resolution < 16:
        raise ParameterOutOfRange(f"sweep needs resolution >= 16, got {resolution}")
    lo = TENT_T_MIN - 1e-12
    for t in list(ts) + [t0]:
        if not (lo <= t <= 1.0):
            raise ParameterOutOfRange(
                f"parameter {t!r} outside [{TENT_T_MIN!r}, 1]"
            )
    op0 = build_ulam(tent_power(t0, power), resolution)
    h0 = ulam_fixed(op0, tol, max_iter)
    areas = op0.grid.areas()
    moments0 = _density_moments(op0.grid, h0.values)
    rows = []
    for t in sorted(ts):
        op = build_ulam(tent_power(t, power), resolution)
        h = ulam_fixed(op, tol, max_iter)
        l1 = float(np.abs(h.values - h0.values) @ areas)
        moments = _density_moments(op.grid, h.values)
        gaps = {name: abs(moments[name] - moments0[name]) for name in TEST_FUNCTIONS}
        rows.append(
            SweepRow(t, t0, power, resolution, l1, gaps, h.iterations, h.residual)
        )
    return rows


def ly_check(
    t: float,
    f0: PiecewisePolyDensity,
    j_max: int,
    cert: ConditionCertificate,
) -> list[LYRow]:
    """Variation of exact pushforward iterates against the certified bound
    lambda^j V(f0) + K1 ||f0||_1 (no coarsening)."""
    if j_max > 5 or j_max < 0:
        raise ParameterOutOfRange(f"j_max must be in 0..5, got {j_max}")
    if not cert.satisfied:
        raise ParameterOutOfRange(
            f"certificate not satisfied under {cert.norm_convention.value}; "
            "the bound has no finite K1"
        )
    m = tent_power(t, cert.power)
    mass0 = sum(abs(v) * poly.area for poly, v in f0.cells)
    v0 = variation(f0)
    rows = [LYRow(0, v0, v0 + cert.K1 * mass0, v0 / (v0 + cert.K1 * mass0))]
    f = f0
    for j in range(1, j_max + 1):
        f = push_forward(m, f)
        vj = variation(f)
        bound = cert.lam**j * v0 + cert.K1 * mass0
        rows.append(LYRow(j, vj, bound, vj / bound))
    return rows


def lyapunov_exponent(t: float, x0, n: int, seed: int) -> float:
    """Per-step log expansion along the orbit of x0 in a random direction;
    the Lyapunov field of ``orbit_stats``."""
    return orbit_stats(t, x0, n, seed).lyapunov


def _captured(x: float, y: float) -> bool:
    """True once the double-precision orbit has landed exactly on the
    boundary of the region, which is invariant and absorbs float orbits
    (at t = 1 they then die at the fixed point within ~60 steps)."""
    return y == 0.0 or x == y or x + y == 2.0 or y < 0.0 or y > x or x + y > 2.0


def _reseed_point(rng) -> tuple[float, float]:
    while True:
        u, v = rng.random(2)
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        x, y = 2.0 * u + v, v
        if 1e-9 < y < x - 1e-9 and x + y < 2.0 - 1e-9:
            return x, y


def birkhoff_average(t: float, fname: str, x0, n: int, seed: int = 0) -> float:
    """Time average (1/n) sum_{j<n} f(map^j x0) of a monomial observable.

    Critical-line hits are harmless (the map is continuous there and apply
    tie-breaks to the first branch); exact capture by the invariant region
    boundary restarts the orbit from a seeded interior point, since capture
    freezes double-precision orbits on a null set.
    """
    if n < 1:
        raise ParameterOutOfRange(f"orbit length must be >= 1, got {n}")
    ax, ay = TEST_FUNCTIONS[fname]
    m = make_tent2d(t)
    rng = np.random.default_rng(seed)
    x = Point2(float(x0[0]), float(x0[1]))
    total = 0.0
    for _ in range(n):
        total += x.x**ax * x.y**ay
        x = maps_mod.apply(m, x)
        if _captured(x.x, x.y):
            x = Point2(*_reseed_point(rng))
    return total / n


def orbit_stats(t: float, x0, n: int, seed: int) -> OrbitStats:
    """Lyapunov exponent plus all monomial Birkhoff averages in one pass.

    Uses the tent branch rule directly (x <= 1 selects the first branch,
    matching the lowest-index tie-break) so million-step orbits stay cheap;
    equivalence with the generic single-step apply is covered by tests.
    Boundary-captured orbits restart from seeded interior points.
    """
    check_tent_parameter(t)
    if n < 1:
        raise ParameterOutOfRange(f"orbit length must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    vx, vy = math.cos(theta), math.sin(theta)
    x = float(x0[0])
    y = float(x0[1])
    sx = sy = sxx = sxy = syy = 0.0
    log_total = 0.0
    reseeds = 0
    for _ in range(n):
        sx += x
        sy += y
        sxx += x * x
        sxy += x * y
        syy += y * y
        if x <= 1.0:
            wx = t * (vx + vy)
            wy = t * (vx - vy)
            x, y = t * (x + y), t * (x - y)
        else:
            wx = t * (-vx + vy)
            wy = t * (-vx - vy)
            x, y = t * (2.0 - x + y), t * (2.0 - x - y)
        norm = math.hypot(wx, wy)
        log_total += math.log(norm)
        vx, vy = wx / norm, wy / norm
        if _captured(x, y):
            x, y = _reseed_point(rng)
            reseeds += 1
    sums = {"1": float(n), "x": sx, "y": sy, "x2": sxx, "xy": sxy, "y2": syy}
    birkhoff = {name: sums[name] / n for name in TEST_FUNCTIONS}
    return OrbitStats(
        t, seed, n, (float(x0[0]), float(x0[1])), log_total / n, birkhoff, reseeds
    )


def seeded_start(t: float, seed: int) -> Point2:
    """Uniformly random interior point of the tent region, reproducible.

    The region does not depend on t; the argument keeps call sites uniform.
    """
    return Point2(*_reseed_point(np.random.default_rng(seed)))


class Tent1DResult(NamedTuple):
    matrix: np.ndarray
    cell_edges: np.ndarray
    fixed_density: np.ndarray
    iterations: int
    residual: float
    converged: bool


def tent1d_ulam(
    a: float, n_cells: int, tol: float = 1e-10, max_iter: int = 20000
) -> Tent1DResult:
    """Ulam matrix and fixed density for x -> 1 - a|x| on [-1, 1].

    Matrix entries come from exact interval preimages of the two affine
    pieces; the fixed density uses the same stationary-vector routine as
    the 2D operators.
    """
    if not (1.0 < a <= 2.0):
        raise ParameterOutOfRange(f"slope a={a!r} outside (1, 2]")
    if n_cells < 2 or n_cells % 2 != 0:
        raise ParameterOutOfRange(f"n_cells must be even and >= 2, got {n_cells}")
    if n_cells * n_cells > MAX_CELLS:
        raise CellExplosion(
            f"n_cells={n_cells} needs {n_cells * n_cells} matrix entries, "
            f"more than the budget of {MAX_CELLS}"
        )
    edges = np.array([-1.0 + 2.0 * k / n_cells for k in range(n_cells + 1)])
    width = 2.0 / n_cells
    # Row i is source cell [lo, hi]; column j is target cell [c, d].
    lo, hi = edges[:-1, None], edges[1:, None]
    c, d = edges[:-1], edges[1:]
    # rising piece 1 + a x on [-1, 0]
    pre_lo = np.maximum((c - 1.0) / a, -1.0)
    pre_hi = np.minimum((d - 1.0) / a, 0.0)
    ln = np.maximum(0.0, np.minimum(pre_hi, hi) - np.maximum(pre_lo, lo))
    # falling piece 1 - a x on [0, 1]
    pre_lo = np.maximum((1.0 - d) / a, 0.0)
    pre_hi = np.minimum((1.0 - c) / a, 1.0)
    ln = ln + np.maximum(0.0, np.minimum(pre_hi, hi) - np.maximum(pre_lo, lo))
    matrix = np.where(ln > 0.0, ln / width, 0.0)
    lengths = np.full(n_cells, width)
    p, iters, residual, converged = stationary_masses(matrix, lengths, tol, max_iter)
    return Tent1DResult(matrix, edges, p / lengths, iters, residual, converged)


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    from .ioutil import fmt

    names = list(TEST_FUNCTIONS)
    header = "t,t0,power,resolution,iterations,residual,l1_dist," + ",".join(
        f"gap_{name}" for name in names
    )
    lines = [header]
    for r in rows:
        parts = [
            fmt(r.t),
            fmt(r.t0),
            str(r.power),
            str(r.resolution),
            str(r.iterations),
            fmt(r.residual),
            fmt(r.l1_dist),
        ]
        parts += [fmt(r.weakstar_gaps[name]) for name in names]
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def ly_csv(t: float, convention: str, rows: Sequence[LYRow]) -> str:
    from .ioutil import fmt

    lines = ["t,convention,j,variation_j,bound,ratio"]
    for r in rows:
        lines.append(
            f"{fmt(t)},{convention},{r.j},{fmt(r.variation_j)},"
            f"{fmt(r.bound_paper)},{fmt(r.ratio)}"
        )
    return "\n".join(lines) + "\n"


def orbit_csv(stats: Sequence[OrbitStats]) -> str:
    from .ioutil import fmt

    names = list(TEST_FUNCTIONS)
    header = "t,seed,n,lyapunov," + ",".join(f"birkhoff_{name}" for name in names)
    lines = [header]
    for s in stats:
        parts = [fmt(s.t), str(s.seed), str(s.n), fmt(s.lyapunov)]
        parts += [fmt(s.birkhoff[name]) for name in names]
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"
