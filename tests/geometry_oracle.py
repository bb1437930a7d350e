"""Affine images, interior angles and inradius as they ran one polygon at
a time: the references the package's ``geom2d.affine_image`` and batched
``geom2d._min_angles`` and ``geom2d._inradii`` (and so
``maps.estimate_long_branches``) must match bit for bit; and
``kept_polygon``, the unchecked constructor the oracles build their
polygons with.  Tests compare the package with these loops; nothing in
the package imports this module.
"""

import math
from itertools import combinations

from tentstab.geom2d import EMPTY, AffineMap2, ConvexPolygon, _kept


def kept_polygon(verts) -> ConvexPolygon:
    """The polygon of what ConvexPolygon keeps of a vertex list (merged
    vertices and their area, or EMPTY), without its convexity and
    orientation checks."""
    kept = _kept([(float(x), float(y)) for x, y in verts])
    return ConvexPolygon._clean(*kept) if kept else EMPTY


def affine_image(m: AffineMap2, p: ConvexPolygon) -> ConvexPolygon:
    """Vertex-wise image through AffineMap2.apply, reversed when det < 0."""
    verts = [m.apply(v) for v in p.vertices]
    if m.linear.det() < 0.0:
        verts.reverse()
    return kept_polygon(verts)


def min_interior_angle(p: ConvexPolygon) -> float:
    """Minimum interior angle in radians, vertex by vertex."""
    verts = p.vertices
    best = math.pi
    n = len(verts)
    for i in range(n):
        vx, vy = verts[i]
        ux, uy = verts[i - 1][0] - vx, verts[i - 1][1] - vy
        wx, wy = verts[(i + 1) % n][0] - vx, verts[(i + 1) % n][1] - vy
        nu = math.hypot(ux, uy)
        nw = math.hypot(wx, wy)
        cosang = max(-1.0, min(1.0, (ux * wx + uy * wy) / (nu * nw)))
        best = min(best, math.acos(cosang))
    return best


def inradius(p: ConvexPolygon) -> float:
    """The best score, over the centres equidistant from each triple of
    edge lines, of the distance to the nearest edge line."""
    lines = []
    for nx, ny, off in p.edge_halfplanes():
        nrm = math.hypot(nx, ny)
        lines.append((nx / nrm, ny / nrm, off / nrm))
    best = 0.0
    for (ax, ay, ao), (bx, by, bo), (cx, cy, co) in combinations(lines, 3):
        m11, m12, r1 = ax - bx, ay - by, ao - bo
        m21, m22, r2 = ax - cx, ay - cy, ao - co
        det = m11 * m22 - m12 * m21
        if det == 0.0:
            continue
        zx = (r1 * m22 - m12 * r2) / det
        zy = (m11 * r2 - r1 * m21) / det
        score = min(o - (nx * zx + ny * zy) for nx, ny, o in lines)
        if score > best:
            best = score
    return best
