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
    lp_norm,
    push_forward,
    stationary_masses,
    ulam_fixed,
    variation,
)
from .errors import CellExplosion, OutsideRegion, ParameterOutOfRange
from .geom2d import EPS_GEOM, Point2
from .ioutil import fmt
from .maps import (
    MAX_CELLS,
    TENT_REGION,
    TENT_T_MIN,
    ConditionCertificate,
    PiecewiseMap,
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


def stability_sweep(
    t0: float,
    ts: Sequence[float],
    resolution: int,
    power: int = 1,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> list[SweepRow]:
    """Invariant-density distances between parameter t and reference t0.

    For each t the Ulam fixed density is extracted on the shared grid,
    built once (every tent power has the region TENT_REGION); the row
    reports the L1 distance to the t0 density and the gaps of exactly
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
    m0 = tent_power(t0, power)
    grid = UlamGrid.build(m0.region, resolution)
    h0 = ulam_fixed(build_ulam(m0, grid), tol, max_iter)
    moments0 = grid.moments(h0.values)
    rows = []
    for t in sorted(ts):
        h = ulam_fixed(build_ulam(tent_power(t, power), grid), tol, max_iter)
        l1 = float(np.abs(h.values - h0.values) @ grid.cell_areas)
        moments = grid.moments(h.values)
        gaps = {name: abs(moments[p] - moments0[p]) for name, p in TEST_FUNCTIONS.items()}
        rows.append(
            SweepRow(t, t0, power, resolution, l1, gaps, h.iterations, h.residual)
        )
    return rows


def ly_check(
    m: PiecewiseMap,
    f0: PiecewisePolyDensity,
    j_max: int,
    cert: ConditionCertificate,
) -> list[LYRow]:
    """Variation of exact pushforward iterates under m against the bound
    lambda^j V(f0) + K1 ||f0||_1 (no coarsening) that cert certifies for
    m: its t and power must be m's."""
    if j_max > 5 or j_max < 0:
        raise ParameterOutOfRange(f"j_max must be in 0..5, got {j_max}")
    if (cert.t, cert.power) != (m.param_t, m.power):
        raise ParameterOutOfRange(
            f"certificate is for t={cert.t!r}, power={cert.power}, "
            f"not t={m.param_t!r}, power={m.power}"
        )
    if not cert.satisfied:
        raise ParameterOutOfRange(
            f"certificate not satisfied under {cert.norm_convention.value}; "
            "the bound has no finite K1"
        )
    mass0 = lp_norm(f0)
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


def _reseed_point(rng) -> tuple[float, float]:
    """The first point _reseed_points(rng, 1) accepts, as Python floats,
    so that the orbit steps after a reseed run on floats rather than numpy
    scalars (the same IEEE arithmetic, and faster)."""
    while True:
        x, y = _reseed_points(rng, 1)
        if len(x):
            return float(x[0]), float(y[0])


def _reseed_stream(rng):
    """The points of repeated _reseed_point(rng) calls, one per next(), as
    _reseed_points draws them, 64 draws at a time."""
    while True:
        x, y = _reseed_points(rng, 64)
        yield from zip(x.tolist(), y.tolist())


def birkhoff_average(t: float, fname: str, x0, n: int, seed: int = 0) -> float:
    """Time average (1/n) sum_{j<n} f(map^j x0) of a monomial observable.

    Critical-line hits are harmless (the map is continuous there and apply
    tie-breaks to the first branch); exact capture by the invariant region
    boundary restarts the orbit from a seeded interior point, since capture
    freezes double-precision orbits on a null set (the boundary is invariant,
    and at t = 1 captured orbits die at the fixed point within ~60 steps).

    The first step is ``maps.apply``: x0 has not passed the capture test,
    so it may lie on an edge or within EPS_GEOM outside, where apply's
    tolerances and tie-break decide, or further out, where apply raises
    OutsideRegion.  Every later step starts from a point with y > 0,
    x > y and x + y < 2, and repeats the float operations apply performs
    on such a point, so the average is bit for bit that of calling apply
    on every step.
    """
    if n < 1:
        raise ParameterOutOfRange(f"orbit length must be >= 1, got {n}")
    if fname not in TEST_FUNCTIONS:
        raise ParameterOutOfRange(
            f"unknown observable {fname!r}; choose from {', '.join(TEST_FUNCTIONS)}"
        )
    ax, ay = TEST_FUNCTIONS[fname]
    m = make_tent2d(t)
    reseeds = _reseed_stream(np.random.default_rng(seed))
    x = float(x0[0])
    y = float(x0[1])
    total = 0.0
    total += x**ax * y**ay
    x, y = maps_mod.apply(m, Point2(x, y))
    # A point with y > 0, x > y and x + y < 2 (float comparisons, so exact;
    # together they give y < 1) decides apply's ConvexPolygon.contains
    # tests by one of them.  contains computes dx*(py - ay) - dy*(px - ax)
    # per edge and compares it with -tol*|d|.  With the vertices of the
    # region and of the branch domains, that value is, for every edge but
    # the two on x = 1, one of: 2.0*y - +0.0 or y - +-0.0, which are > 0;
    # (x - 1.0) - (y - 1.0), which is >= 0 because rounding is monotone and
    # x > y; or -y - (x - 2.0), which is >= 0 because x - 2.0 rounds to
    # -(2.0 - x) and y < 2 - x gives y <= fl(2 - x).  So the region test
    # passes, and so do those edge tests of both domains.  The left
    # domain's edge (1,0)->(1,1) computes 0.0*(y - 0.0) - 1.0*(x - 1.0),
    # that is -(x - 1.0), against -EPS_GEOM*1.0: the branch test below.
    # The right domain's edge (1,1)->(1,0) computes
    # 0.0*(y - 1.0) - (-1.0)*(x - 1.0), that is x - 1.0 (y < 1 makes the
    # product -0.0), which passes wherever the left test fails, so apply's
    # second tolerance is never reached.  Each step is the branch's
    # Matrix2.apply, then its shift, in apply's order.
    nt = -t
    t2 = 2.0 * t
    if y <= 0.0 or x <= y or x + y >= 2.0:
        x, y = next(reseeds)
    for _ in range(n - 1):
        total += x**ax * y**ay
        if -(x - 1.0) >= -EPS_GEOM:
            x, y = (t * x + t * y) + 0.0, (t * x + nt * y) + 0.0
        else:
            x, y = (nt * x + t * y) + t2, (nt * x + nt * y) + t2
        if y <= 0.0 or x <= y or x + y >= 2.0:
            x, y = next(reseeds)
    return total / n


# Orbit segments run side by side as numpy lanes, at most _LANES at a time
# and each for at most _LANE_STEPS steps (orbit_stats).
_LANES = 256
_LANE_STEPS = 128


def _reseed_points(rng, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform interior points of the region at least 1e-9 from its edges,
    from k draws of rng.random(2), in order: the draws as rng.random((k,
    2)), which holds the same doubles in the same order.  A rejected draw
    gives no point, so fewer than k may come back; orbit_stats draws them
    in batches, and _reseed_point one at a time."""
    u, v = rng.random((k, 2)).T
    flip = u + v > 1.0
    u = np.where(flip, 1.0 - u, u)
    v = np.where(flip, 1.0 - v, v)
    x = 2.0 * u + v
    keep = (1e-9 < v) & (v < x - 1e-9) & (x + v < 2.0 - 1e-9)
    return x[keep], v[keep]


def _lane_step(t: float, x, y, out_x, out_y, a) -> None:
    """One step of every lane, from (x, y) into (out_x, out_y), a as
    scratch: orbit_stats' scalar step a = x if x <= 1 else 2 - x, then
    t * (a + y), t * (a - y), bit for bit.  min(x, 2 - x) is that a
    (x <= 1 makes fl(2 - x) >= 1 >= x; x > 1 makes fl(2 - x) < 1 < x, as
    2 - x is exact up to x = 2 and negative beyond)."""
    np.subtract(2.0, x, out=a)
    np.minimum(a, x, out=a)
    np.add(a, y, out=out_x)
    np.subtract(a, y, out=out_y)
    out_x *= t
    out_y *= t


def _run_lanes(
    t: float, px: np.ndarray, py: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbit segments from the points (px, py), one lane each, run side by
    side until the region boundary captures them or _LANE_STEPS steps pass.

    Returns the segments of the lanes before the first one that outlived
    the cap (all lanes if none did), one after another, each as the points
    its steps start from, and their lengths (steps to capture).
    """
    cap = _LANE_STEPS
    k = len(px)
    xs = np.empty((cap + 1, k))
    ys = np.empty((cap + 1, k))
    caught = np.empty((cap, k), dtype=bool)
    xs[0] = px
    ys[0] = py
    live = np.ones(k, dtype=bool)
    a = np.empty(k)
    for j in range(cap):
        _lane_step(t, xs[j], ys[j], xs[j + 1], ys[j + 1], a)
        # The capture test, on eight steps at once; a captured lane runs
        # on until every lane is captured, and its later points are unused.
        if j % 8 == 7 or j == cap - 1:
            lo = j - j % 8
            x, y = xs[lo + 1 : j + 2], ys[lo + 1 : j + 2]
            c = caught[lo : j + 1]
            np.less_equal(y, 0.0, out=c)
            c |= x <= y
            c |= x + y >= 2.0
            live &= ~c.any(axis=0)
            if not live.any():
                break
    steps = j + 1
    caught = caught[:steps]
    ended = caught.any(axis=0)
    m = k if ended.all() else int(ended.argmin())
    lengths = caught[:, :m].argmax(axis=0) + 1
    inside = (np.arange(steps)[:, None] < lengths).T
    return xs[:steps, :m].T[inside], ys[:steps, :m].T[inside], lengths


def _replay(
    t: float, px: list[float], py: list[float], steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The points that the first `steps` steps of an orbit start from,
    given the start point of every _LANE_STEPS-th step (px, py): each of
    those runs as a lane up to the next, and the lanes are joined in order."""
    rows = min(_LANE_STEPS, steps)
    k = len(px)
    xs = np.empty((rows, k))
    ys = np.empty((rows, k))
    xs[0] = px
    ys[0] = py
    a = np.empty(k)
    for j in range(rows - 1):
        _lane_step(t, xs[j], ys[j], xs[j + 1], ys[j + 1], a)
    # Each 2-D array is freed as soon as it is copied out in orbit order.
    x = xs.T.ravel()[:steps]
    del xs
    return x, ys.T.ravel()[:steps]


def _scalar_run(
    t: float, x: float, y: float, limit: int
) -> tuple[np.ndarray, np.ndarray, tuple[float, float] | None]:
    """The orbit from (x, y) up to its first capture or `limit` steps: the
    points its steps start from (_replay), and the point the next step
    starts from, or None if the boundary captured the last step's result.
    The loop runs the float recurrence and the capture test alone, and
    keeps the start of every _LANE_STEPS-th step."""
    px, py = [], []
    for k in range(0, limit, _LANE_STEPS):
        px.append(x)
        py.append(y)
        for j in range(min(_LANE_STEPS, limit - k)):
            a = x if x <= 1.0 else 2.0 - x
            x, y = t * (a + y), t * (a - y)
            if y <= 0.0 or x <= y or x + y >= 2.0:
                return *_replay(t, px, py, k + j + 1), None
    return *_replay(t, px, py, limit), (x, y)


def _fold(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ... added one term at a time, in order
    (add.accumulate adds sequentially): the bits of ``total += term`` over
    terms.  Overwrites terms.  (np.cumsum's Python wrapper leaves small
    allocations that tracemalloc sees pile up from batch to batch.)"""
    terms[0] += total
    np.add.accumulate(terms, out=terms)
    return float(terms[-1])


def orbit_stats(t: float, x0, n: int, seed: int) -> OrbitStats:
    """Lyapunov exponent plus all monomial Birkhoff averages in one pass.

    Uses the tent branch rule directly (x <= 1 selects the first branch,
    matching the lowest-index tie-break) so million-step orbits stay cheap;
    equivalence with the generic single-step apply is covered by tests.
    Boundary-captured orbits restart from seeded interior points.

    The Lyapunov sum follows a unit tangent vector: each step maps it by
    the branch's linear part, adds the log of the image's norm and divides
    by that norm.  The two linear parts are sqrt(2) t times a reflection
    and a rotation by 225 degrees, which generate the symmetries of the
    regular octagon, so in exact arithmetic the unit vector takes at most
    16 directions, and rounding splits them into a few more float vectors
    (at most 51 states along 1200 seeded orbits of 1e5 steps, at most 132
    in the closure under both branches).  A step's result depends only on
    the float vector and the branch, so the loop numbers these tangent
    states as it meets them and learns each (state, branch) step lazily:
    the first time it is taken, it runs the per-step arithmetic once and
    records the next state and its log.  Every later step is a lookup that
    adds the very float the arithmetic would add, in the same order, so
    the results are bit for bit those of renormalizing on every step,
    however many states an orbit meets.

    Every segment of the orbit runs as numpy lanes with the scalar step's
    float operations (_lane_step).  From x0, and from a reseeded lane that
    outlives _LANE_STEPS, a scalar loop runs the float recurrence and the
    capture test alone, up to _LANES * _LANE_STEPS steps at a time, and
    replays its checkpoints as lanes (_scalar_run); at t < 1 the boundary
    never captures such an orbit, so this covers all n steps.  At t = 1 it
    captures double-precision orbits every 79 to 104 steps (mean 101, over
    20,000 reseeded segments), and each reseed point depends only on the
    RNG stream, never on the orbit, so the reseeded segments run as lanes
    from their start (_run_lanes).  Every batch of points, in orbit order
    and cut at n, goes through one fold: the tangent states are looked up
    a byte of branches at a time, and each sum adds its terms one at a
    time in the same order (_fold), so every result keeps the bits of a
    loop that sums on every step.
    """
    check_tent_parameter(t)
    if n < 1:
        raise ParameterOutOfRange(f"orbit length must be >= 1, got {n}")
    if not TENT_REGION.contains(x0, EPS_GEOM):
        raise OutsideRegion(f"point {tuple(x0)!r} is not in the region")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    # Tangent state s: unit vector (vxs[s], vys[s]) and the log expansion
    # logs[s] of the step that produced it (state 0, the starting vector,
    # has none).  next0[s] and next1[s] are the states the first and second
    # branch send s to, or ~s (negative) until that step is first taken.
    # States are keyed by float.hex, so equal keys mean equal bits.  A zero
    # component only arises as +0.0 (x + (-x) rounds to +0.0), beside a
    # partner of exactly +-1.0, so -0.0 never occurs; the keys would keep
    # it apart from +0.0 if it did.
    vxs, vys, logs = [math.cos(theta)], [math.sin(theta)], [0.0]
    next0, next1 = [~0], [~0]
    index: dict[tuple[str, str, str], int] = {}

    def learn(s: int, nexts: list[int]) -> int:
        vx, vy = vxs[s], vys[s]
        if nexts is next0:
            wx = t * (vx + vy)
            wy = t * (vx - vy)
        else:
            wx = t * (-vx + vy)
            wy = t * (-vx - vy)
        norm = math.hypot(wx, wy)
        lg = math.log(norm)
        vx = wx / norm
        vy = wy / norm
        key = (vx.hex(), vy.hex(), lg.hex())
        r = index.get(key)
        if r is None:
            r = index[key] = len(logs)
            vxs.append(vx)
            vys.append(vy)
            logs.append(lg)
            next0.append(~r)
            next1.append(~r)
        nexts[s] = r
        return r

    # word_ends[s << 8 | w] is the state that the eight branches of the
    # byte w (first step in the high bit, 1 for the second branch) take s
    # to, or -1 until that word is first walked from s.
    word_ends: list[int] = []

    def walk(s: int, bits: np.ndarray) -> np.ndarray:
        """The tangent states after each step of the branch bits from s."""
        words = np.packbits(bits)  # the zero padding's steps go unused
        word_ends.extend([-1] * ((len(logs) << 8) - len(word_ends)))
        starts = []
        for w in words.tolist():
            starts.append(s)
            word = s << 8 | w
            s = word_ends[word]
            if s < 0:
                s = word >> 8
                for i in range(7, -1, -1):
                    nexts = next1 if word >> i & 1 else next0
                    r = nexts[s]
                    s = learn(~r, nexts) if r < 0 else r
                word_ends.extend([-1] * ((len(logs) << 8) - len(word_ends)))
                word_ends[word] = s
        # Every step of these words is learned now: replay them per step.
        steps = np.array([next0, next1]).T
        cur = np.array(starts)
        states = np.empty((len(starts), 8), dtype=np.intp)
        for i, branch in enumerate(np.unpackbits(words).reshape(-1, 8).T):
            cur = states[:, i] = steps[cur, branch]
        return states.ravel()[: len(bits)]

    # The start of the scalar loop's next segment, or None while the
    # reseeded segments run as lanes.
    start: tuple[float, float] | None = (float(x0[0]), float(x0[1]))
    sx = sy = sxx = sxy = syy = 0.0
    log_total = 0.0
    reseeds = 0
    s = 0
    done = 0
    # Reseed points drawn ahead of use, in draw order.
    qx = qy = np.empty(0)
    while done < n:
        if start is not None:
            xs, ys, start = _scalar_run(t, *start, min(n - done, _LANES * _LANE_STEPS))
            if start is None:
                reseeds += 1
        else:
            # t = 1 segments are longer than 64 steps, so these lanes
            # usually cover the rest of the orbit.
            lanes = min(_LANES, (n - done) // 64 + 1)
            while len(qx) < lanes:
                px, py = _reseed_points(rng, lanes - len(qx))
                qx, qy = np.concatenate((qx, px)), np.concatenate((qy, py))
            xs, ys, lengths = _run_lanes(t, qx[:lanes], qy[:lanes])
            m = len(lengths)
            reseeds += int(np.count_nonzero(np.cumsum(lengths) <= n - done))
            if m < lanes:
                # Lane m outlived the cap: the scalar loop runs it instead.
                start = float(qx[m]), float(qy[m])
                m += 1
            qx, qy = qx[m:], qy[m:]
            xs, ys = xs[: n - done], ys[: n - done]
        if len(xs):
            done += len(xs)
            branches = xs > 1.0
            sxx = _fold(sxx, xs * xs)
            sxy = _fold(sxy, xs * ys)
            syy = _fold(syy, ys * ys)
            sx = _fold(sx, xs)
            sy = _fold(sy, ys)
            # Free the points before the tangent states and the next
            # batch are allocated.
            del xs, ys
            states = walk(s, branches)
            s = int(states[-1])
            log_total = _fold(log_total, np.array(logs)[states])
            del branches, states
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


def _overlaps(pre_lo, pre_hi, lo, hi):
    """(i, j, max(0, min(pre_hi[j], hi[i]) - max(pre_lo[j], lo[i]))) for the
    j with pre_hi[j] > lo[i] and pre_lo[j] < hi[i], a run of j for each i
    as pre_lo and pre_hi are nondecreasing: every (i, j) where that
    overlap length can be positive."""
    start = np.searchsorted(pre_hi, lo, side="right")
    count = np.maximum(np.searchsorted(pre_lo, hi, side="left") - start, 0)
    i = np.repeat(np.arange(len(lo)), count)
    j = np.arange(len(i)) - np.repeat(np.cumsum(count) - count - start, count)
    ln = np.maximum(0.0, np.minimum(pre_hi[j], hi[i]) - np.maximum(pre_lo[j], lo[i]))
    return i, j, ln


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
    # Row i is source cell [lo, hi]; column j is target cell [c, d].  The
    # overlaps of each piece are written into a zero matrix, summed there,
    # and scaled in place: the entries, and bits, of the same formula over
    # every (i, j), where all other overlaps are 0.  Column-major storage
    # makes the stationary solve's C-contiguous adjoint a view, not a copy.
    lo, hi = edges[:-1], edges[1:]
    c, d = edges[:-1], edges[1:]
    matrix = np.zeros((n_cells, n_cells), order="F")
    # rising piece 1 + a x on [-1, 0]
    i1, j1, ln = _overlaps(np.maximum((c - 1.0) / a, -1.0), np.minimum((d - 1.0) / a, 0.0), lo, hi)
    matrix[i1, j1] = ln
    # falling piece 1 - a x on [0, 1], whose preimages fall with j
    i2, j2, ln = _overlaps(
        np.maximum((1.0 - d) / a, 0.0)[::-1], np.minimum((1.0 - c) / a, 1.0)[::-1], lo, hi
    )
    j2 = n_cells - 1 - j2
    matrix[i2, j2] += ln
    i, j = np.concatenate((i1, i2)), np.concatenate((j1, j2))
    ln = matrix[i, j]
    matrix[i, j] = np.where(ln > 0.0, ln / width, 0.0)
    lengths = np.full(n_cells, width)
    p, iters, residual, converged = stationary_masses(matrix, lengths, tol, max_iter)
    return Tent1DResult(matrix, edges, p / lengths, iters, residual, converged)


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------


def sweep_csv(rows: Sequence[SweepRow]) -> str:
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
    lines = ["t,convention,j,variation_j,bound,ratio"]
    for r in rows:
        lines.append(
            f"{fmt(t)},{convention},{r.j},{fmt(r.variation_j)},"
            f"{fmt(r.bound_paper)},{fmt(r.ratio)}"
        )
    return "\n".join(lines) + "\n"


def orbit_csv(stats: Sequence[OrbitStats]) -> str:
    names = list(TEST_FUNCTIONS)
    header = "t,seed,n,lyapunov," + ",".join(f"birkhoff_{name}" for name in names)
    lines = [header]
    for s in stats:
        parts = [fmt(s.t), str(s.seed), str(s.n), fmt(s.lyapunov)]
        parts += [fmt(s.birkhoff[name]) for name in names]
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"
