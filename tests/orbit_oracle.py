"""Step-by-step loops that the package's orbit loops must match.

``orbit_stats`` below renormalizes the tangent vector on every step: it maps
the unit vector by the branch's linear part, takes the norm with
``math.hypot``, adds its ``log`` to the running total and divides.  This is
the loop the package ran before it looked the tangent steps up in a table of
the few float states the tangent vector takes.

``birkhoff_average`` below maps the point with ``maps.apply`` on every step,
so each step runs the polygon tests of the region and the branch domains.
This is the loop the package ran before it repeated apply's arithmetic
inline after the first step.  ``birkhoff_averages`` walks the same orbit
once for all six observables, each with its own running total of the same
terms in the same order.

Tests compare the package with these loops under ``float.hex``; nothing in
the package imports this module.
"""

import math

import numpy as np

from tentstab import maps as maps_mod
from tentstab.errors import ParameterOutOfRange
from tentstab.experiments import TEST_FUNCTIONS, OrbitStats, _reseed_point
from tentstab.geom2d import Point2
from tentstab.maps import check_tent_parameter, make_tent2d


def orbit_stats(t, x0, n, seed):
    """Lyapunov exponent and monomial Birkhoff averages, one step at a time."""
    check_tent_parameter(t)
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
        vx = wx / norm
        vy = wy / norm
        if y <= 0.0 or x <= y or x + y >= 2.0:
            x, y = _reseed_point(rng)
            reseeds += 1
    sums = {"1": float(n), "x": sx, "y": sy, "x2": sxx, "xy": sxy, "y2": syy}
    birkhoff = {name: sums[name] / n for name in TEST_FUNCTIONS}
    return OrbitStats(
        t, seed, n, (float(x0[0]), float(x0[1])), log_total / n, birkhoff, reseeds
    )


def birkhoff_average(t, fname, x0, n, seed=0):
    """Time average of a monomial observable, through maps.apply on every step."""
    if n < 1:
        raise ParameterOutOfRange(f"orbit length must be >= 1, got {n}")
    if fname not in TEST_FUNCTIONS:
        raise ParameterOutOfRange(
            f"unknown observable {fname!r}; choose from {', '.join(TEST_FUNCTIONS)}"
        )
    ax, ay = TEST_FUNCTIONS[fname]
    m = make_tent2d(t)
    rng = np.random.default_rng(seed)
    x = Point2(float(x0[0]), float(x0[1]))
    total = 0.0
    for _ in range(n):
        total += x.x**ax * x.y**ay
        x = maps_mod.apply(m, x)
        if x.y <= 0.0 or x.x <= x.y or x.x + x.y >= 2.0:
            x = Point2(*_reseed_point(rng))
    return total / n


def birkhoff_averages(t, x0, n, seed=0):
    """birkhoff_average of every observable in TEST_FUNCTIONS, from one walk
    of the orbit (the orbit and its reseeds do not depend on the observable)."""
    if n < 1:
        raise ParameterOutOfRange(f"orbit length must be >= 1, got {n}")
    powers = list(TEST_FUNCTIONS.items())
    m = make_tent2d(t)
    rng = np.random.default_rng(seed)
    x = Point2(float(x0[0]), float(x0[1]))
    totals = [0.0] * len(powers)
    for _ in range(n):
        for k, (_, (ax, ay)) in enumerate(powers):
            totals[k] += x.x**ax * x.y**ay
        x = maps_mod.apply(m, x)
        if x.y <= 0.0 or x.x <= x.y or x.x + x.y >= 2.0:
            x = Point2(*_reseed_point(rng))
    return {name: total / n for (name, _), total in zip(powers, totals)}
