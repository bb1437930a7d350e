"""Calibration loop that measures how fast the machine runs right now.

The reference machine is a shared host whose speed for the same work
drifts by up to 2x within minutes (see README.md, "Machine speed").  A run
times this loop before each job and scales its end-to-end times to the
reference speed, at which one call takes CAL_REF_S:

    reported = measured * CAL_REF_S / calibration time

The loop is benchmark code and never changes with the program, so a
change to the program moves the reported times as much as the measured
ones.  It mixes two kinds of work, as the program does:

- pure interpreter arithmetic, in a frozen copy of a Sutherland-Hodgman
  clipping step;
- allocation over a working set of about 4 MB of small tuples, which is
  sensitive to cache and memory contention from other tenants.
"""

from __future__ import annotations

import math
import time

# Seconds one calibrate() call takes at the reference speed: about its
# median on the 2-core reference machine (Intel Xeon, Python 3.11.7)
# when that machine runs slowly.
CAL_REF_S = 0.15

_REPS = 12000
_SWEEPS = 3
# Allocated once, so the loop adds a constant few MB to the resident set
# instead of a transient that could set the peak the benchmark reports.
_POLYS = tuple(((k * 1e-5, 0.0), (1.0, k * 1e-5), (1.0, 1.0), (0.0, 1.0)) for k in range(8000))


def _clip(verts, nx, ny, off):
    """One Sutherland-Hodgman step: keep {p : nx*x + ny*y <= off}."""
    out = []
    px, py = verts[-1]
    dprev = off - (nx * px + ny * py)
    for cx, cy in verts:
        d = off - (nx * cx + ny * cy)
        if d >= 0.0:
            if dprev < 0.0:
                t = dprev / (dprev - d)
                out.append((px + t * (cx - px), py + t * (cy - py)))
            out.append((cx, cy))
        elif dprev >= 0.0:
            t = dprev / (dprev - d)
            out.append((px + t * (cx - px), py + t * (cy - py)))
        px, py, dprev = cx, cy, d
    return out


def calibrate() -> float:
    """Wall time of one run of the calibration loop, in seconds."""
    start = time.perf_counter()
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    acc = 0.0
    for k in range(_REPS):
        s = 0.1 + (k % 7) * 0.05
        v = _clip(_clip(square, 1.0, 1.0, 1.0 + s), -1.0, 0.5, s)
        acc += math.hypot(*v[0])
    n = len(_POLYS)
    kept = []
    for k in range(_SWEEPS * n):
        v = _clip(_clip(_POLYS[(k * 7919) % n], 1.0, 1.0, 1.3), -1.0, 0.5, 0.4)
        kept.append(v)
        if len(kept) == 1000:
            kept = []
        acc += v[0][0]
    if not math.isfinite(acc):
        raise ArithmeticError("calibration loop produced a non-finite sum")
    return time.perf_counter() - start
