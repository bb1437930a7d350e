"""Affine images, interior angles, inradius and centroids as they ran one
polygon at a time: the references the package's ``geom2d.affine_image``
and batched ``geom2d._min_angles``, ``geom2d._inradii`` and
``geom2d._centroids`` (and so ``maps.estimate_long_branches`` and the
density table's centroids) must match bit for bit; ``kept_polygon``, the
unchecked constructor the oracles build their polygons with; and
``bbox`` and ``box``, a polygon's bounding box and an axis-aligned
rectangle.  Tests compare the package with these loops; nothing in the
package imports this module.
"""

import math
from itertools import combinations

from tentstab.errors import DegeneratePolygon
from tentstab.geom2d import EMPTY, EPS_AREA, AffineMap2, ConvexPolygon, Point2, _kept, ordered_sum


def kept_polygon(verts) -> ConvexPolygon:
    """The polygon of what ConvexPolygon keeps of a vertex list (merged
    vertices and their area, or EMPTY), without its convexity and
    orientation checks."""
    kept = _kept([(float(x), float(y)) for x, y in verts])
    return ConvexPolygon._clean(*kept) if kept else EMPTY


def box(xmin: float, ymin: float, xmax: float, ymax: float) -> ConvexPolygon:
    """Axis-aligned rectangle as a CCW polygon, unchecked: flipped in one
    axis (xmin > xmax or ymin > ymax, not both), its vertices run
    clockwise and its area is 0."""
    xmin, ymin, xmax, ymax = map(float, (xmin, ymin, xmax, ymax))
    return kept_polygon(((xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)))


def bbox(p: ConvexPolygon) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) of a nonempty polygon's vertices."""
    xs = [v[0] for v in p.vertices]
    ys = [v[1] for v in p.vertices]
    return (min(xs), min(ys), max(xs), max(ys))


def centroid(p: ConvexPolygon) -> Point2:
    """The centroid: the edge sums over 6 * area, or the mean of the
    vertices where the area is below EPS_AREA; DegeneratePolygon for Empty."""
    verts = p.vertices
    if not verts:
        raise DegeneratePolygon("centroid of empty polygon")
    # The stored area is the shoelace sum wherever that is >= EPS_AREA.
    a = p.area
    if a < EPS_AREA:
        xs = ordered_sum(v[0] for v in verts) / len(verts)
        ys = ordered_sum(v[1] for v in verts) / len(verts)
        return Point2(xs, ys)
    cx = cy = 0.0
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        w = x0 * y1 - x1 * y0
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    return Point2(cx / (6.0 * a), cy / (6.0 * a))


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
