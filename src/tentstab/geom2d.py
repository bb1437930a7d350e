"""Exact-at-tolerance planar convex geometry.

Convex polygons in strict counter-clockwise order, half-plane clipping,
pairwise intersection, affine images, interior angles, inradius, and
closed-form 2x2 matrix norms; and the octagon kernel, which meets, maps
and measures polygons with edges along x, y, x + y and x - y as batched
numpy bounds, without clipping.  Everything here is an immutable value and
every function is pure, so values can be shared freely across threads.

Clipping predicates use exact floating-point sign tests (no epsilon), which
makes a polygon and its complement split against the same line bitwise
consistent; tolerances enter only when merging near-coincident vertices
(EPS_GEOM) and when normalizing slivers to Empty (EPS_AREA).  One routine,
_cut, clips a vertex list by a convex clipper's half-planes for both
intersect and density._split, skipping the half-planes that do not cut it.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain, combinations
from operator import add
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DegeneratePolygon, InvalidPolygon, NotOctilinear, SingularMatrix

EPS_GEOM = 1e-9   # vertex merge / containment tolerance
EPS_AREA = 1e-12  # polygons below this area are normalized to Empty
SNAP = 1e-9       # quantization grid used to identify shared vertices/edges


class Point2(NamedTuple):
    x: float
    y: float


def snap_key(p) -> tuple[int, int]:
    """Integer grid key identifying points that coincide up to SNAP."""
    return (round(p[0] / SNAP), round(p[1] / SNAP))


def ordered_sum(terms) -> float:
    """The terms added left to right from 0.0, as Python's sum() did before 3.12."""
    return reduce(add, terms, 0.0)


class Matrix2(NamedTuple):
    """Row-major 2x2 real matrix [[a, b], [c, d]]."""

    a: float
    b: float
    c: float
    d: float

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def mul(self, other: "Matrix2") -> "Matrix2":
        """Matrix product self @ other."""
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def inverse(self) -> "Matrix2":
        det = self.det()
        if abs(det) <= EPS_GEOM:
            raise SingularMatrix(f"matrix {self} has |det| = {abs(det)!r} <= {EPS_GEOM}")
        return Matrix2(self.d / det, -self.b / det, -self.c / det, self.a / det)


class AffineMap2(NamedTuple):
    """x -> linear @ x + shift; branches of piecewise maps are bijections."""

    linear: Matrix2
    shift: tuple[float, float]

    def apply(self, p) -> Point2:
        x, y = self.linear.apply(p[0], p[1])
        return Point2(x + self.shift[0], y + self.shift[1])

    def compose(self, inner: "AffineMap2") -> "AffineMap2":
        """self after inner: p -> self(inner(p))."""
        lin = self.linear.mul(inner.linear)
        sx, sy = self.linear.apply(inner.shift[0], inner.shift[1])
        return AffineMap2(lin, (sx + self.shift[0], sy + self.shift[1]))

    def inverse(self) -> "AffineMap2":
        inv = self.linear.inverse()
        sx, sy = inv.apply(self.shift[0], self.shift[1])
        return AffineMap2(inv, (-sx, -sy))


def _dedup(verts):
    """Merge consecutive vertices closer than EPS_GEOM (cyclically)."""
    if not verts:
        return ()
    out = []
    eps2 = EPS_GEOM * EPS_GEOM
    for v in verts:
        if out:
            dx = v[0] - out[-1][0]
            dy = v[1] - out[-1][1]
            if dx * dx + dy * dy <= eps2:
                continue
        out.append(v)
    while len(out) >= 2:
        dx = out[0][0] - out[-1][0]
        dy = out[0][1] - out[-1][1]
        if dx * dx + dy * dy <= eps2:
            out.pop()
        else:
            break
    return tuple(out)


def _shoelace(verts) -> float:
    """Half the sum of x0 y1 - x1 y0 over the edges (v0, v1), ..., (vn-1,
    v0), added in that order."""
    s = 0.0
    x0, y0 = verts[0]
    for x1, y1 in verts[1:]:
        s += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    x1, y1 = verts[0]
    s += x0 * y1 - x1 * y0
    return 0.5 * s


def _kept(verts):
    """What ConvexPolygon keeps of a vertex list: (the vertices merged by
    _dedup, their area), or None where fewer than three vertices remain or
    their shoelace sum is below EPS_AREA in absolute value.  The area is
    the shoelace sum, or 0 where that is negative."""
    verts = _dedup(verts)
    if len(verts) < 3:
        return None
    a = _shoelace(verts)
    if abs(a) < EPS_AREA:
        return None
    return verts, max(0.0, a)


class ConvexPolygon:
    """Immutable convex polygon with CCW vertices; may be Empty.

    Construct via ``ConvexPolygon(vertices)`` for validated input, or the
    ``EMPTY`` singleton.  Vertices are plain (x, y) float pairs.
    """

    __slots__ = ("vertices", "_area")

    def __init__(self, vertices: Iterable = ()):
        kept = _kept([(float(p[0]), float(p[1])) for p in vertices])
        verts, area = kept if kept else ((), 0.0)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_area", area)
        for v in verts:
            if not (math.isfinite(v[0]) and math.isfinite(v[1])):
                raise InvalidPolygon(f"non-finite vertex {v}")
        n = len(verts)
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            cx, cy = verts[(i + 2) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross < -EPS_GEOM:
                raise InvalidPolygon(
                    "vertices must be convex in counter-clockwise order "
                    f"(cross product {cross!r} at vertex {i})"
                )

    def __setattr__(self, name, value):
        raise AttributeError("ConvexPolygon is immutable")

    @staticmethod
    def _clean(verts: tuple, area: float) -> "ConvexPolygon":
        """Constructor, without checks, for vertices that _kept keeps as
        they are (merged, convex CCW, above EPS_AREA), given with their
        area, as _kept returns them."""
        poly = object.__new__(ConvexPolygon)
        object.__setattr__(poly, "vertices", verts)
        object.__setattr__(poly, "_area", area)
        return poly

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def area(self) -> float:
        return self._area

    def edges(self) -> Iterator[tuple[tuple[float, float], tuple[float, float]]]:
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            yield verts[i], verts[(i + 1) % n]

    def edge_halfplanes(self) -> list[tuple[float, float, float]]:
        """Unnormalized (nx, ny, offset) with interior = {n . p <= offset},
        one per edge in edges() order."""
        verts = self.vertices
        planes = []
        if not verts:
            return planes
        ax, ay = verts[0]
        for bx, by in verts[1:] + verts[:1]:
            dx, dy = bx - ax, by - ay
            planes.append((dy, -dx, dy * ax - dx * ay))
            ax, ay = bx, by
        return planes

    def contains(self, p, tol: float = EPS_GEOM) -> bool:
        """True if p lies in the polygon, inflated by tol (a distance).

        Each edge test is written "not (cross >= bound)" so that a point
        with a NaN coordinate fails it and is outside every polygon.
        """
        if not self.vertices:
            return False
        px, py = p[0], p[1]
        for (ax, ay), (bx, by) in self.edges():
            dx, dy = bx - ax, by - ay
            if not (dx * (py - ay) - dy * (px - ax) >= -tol * math.hypot(dx, dy)):
                return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        if self.is_empty:
            return "ConvexPolygon.EMPTY"
        return f"ConvexPolygon({list(self.vertices)!r})"


EMPTY = ConvexPolygon(())
ConvexPolygon.EMPTY = EMPTY


def perimeter(p: ConvexPolygon) -> float:
    return ordered_sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in p.edges())


def _clip_verts(verts, nx: float, ny: float, off: float):
    """Sutherland-Hodgman step: keep {p : nx*x + ny*y <= off}.

    Sign tests are exact; a vertex exactly on the line is kept on both
    sides of a complementary pair of half-planes, and the crossing point
    for (n, off) and (-n, -off) is bitwise identical.
    """
    if not verts:
        return ()
    out = []
    px, py = verts[-1]
    dprev = off - (nx * px + ny * py)
    for vertex in verts:
        cx, cy = vertex
        d = off - (nx * cx + ny * cy)
        if d >= 0.0:
            if dprev < 0.0:
                t = dprev / (dprev - d)
                out.append((px + t * (cx - px), py + t * (cy - py)))
            out.append(vertex)
        elif dprev >= 0.0:
            t = dprev / (dprev - d)
            out.append((px + t * (cx - px), py + t * (cy - py)))
        px, py, dprev = cx, cy, d
    return out


def _cut(verts, planes):
    """verts clipped by the half-planes (nx, ny, off) in turn, skipping
    each that no current vertex fails by _clip_verts' own sign test: such
    a clip would return the vertex list unchanged.  Returns the clipped
    vertex list and the cuts, (nx, ny, off, the vertex list it cut) for
    each plane clipped, in order; stops once a clip keeps nothing."""
    cuts = []
    for nx, ny, off in planes:
        for x, y in verts:
            if off - (nx * x + ny * y) < 0.0:
                break
        else:
            continue
        cuts.append((nx, ny, off, verts))
        verts = _clip_verts(verts, nx, ny, off)
        if not verts:
            break
    return verts, cuts


def intersect(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """a ∩ b, by clipping a against the edge half-planes of b that cut it
    (_cut), which gives the bits of clipping it against every one.

    When no edge of b cuts a, the result is a itself, with a's own area:
    for a polygon that _polygons made, its octagon's area rather than the
    shoelace sum that clipping would leave."""
    if a.is_empty or b.is_empty:
        return EMPTY
    verts, cuts = _cut(a.vertices, b.edge_halfplanes())
    if not cuts:
        return a
    kept = _kept(verts)
    return ConvexPolygon._clean(*kept) if kept else EMPTY


def affine_image(m: AffineMap2, p: ConvexPolygon) -> ConvexPolygon:
    """Vertex-wise image; orientation restored to CCW when det < 0."""
    det = m.linear.det()
    if abs(det) <= EPS_GEOM:
        raise SingularMatrix(f"affine map with |det| = {abs(det)!r} is not a bijection")
    kept = _mapped(m, p.vertices)
    return ConvexPolygon._clean(*kept) if kept else EMPTY


def _mapped(m: AffineMap2, verts):
    """_kept of the vertex-wise image of a vertex list under m (AffineMap2.apply's
    arithmetic), reversed where m reverses orientation."""
    (a, b, c, d), (sx, sy) = m
    image = [(a * x + b * y + sx, c * x + d * y + sy) for x, y in verts]
    if a * d - b * c < 0.0:
        image.reverse()
    return _kept(image)


def matrix_norms(m: Matrix2) -> dict:
    """Closed-form 2x2 norms: largest singular value, max |entry|, det."""
    e = 0.5 * (m.a + m.d)
    f = 0.5 * (m.a - m.d)
    g = 0.5 * (m.c + m.b)
    h = 0.5 * (m.c - m.b)
    q = math.hypot(e, h)
    r = math.hypot(f, g)
    return {
        "spectral": q + r,
        "max_entry": max(abs(m.a), abs(m.b), abs(m.c), abs(m.d)),
        "det": m.det(),
    }


def _measured(polys, need: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex batch of polygons, or DegeneratePolygon for a degenerate one."""
    if any(len(p.vertices) < 3 or p.area < EPS_AREA for p in polys):
        raise DegeneratePolygon(f"{need} a non-degenerate polygon")
    return _batch([p.vertices for p in polys])


def inradius(p: ConvexPolygon) -> float:
    """Radius of the largest inscribed disk (see _inradii)."""
    return float(_inradii(*_measured([p], "inradius needs"))[0])


def _min_angles(x: np.ndarray, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The minimum interior angle of each polygon of a vertex batch (pi if
    it has no vertex), with math.hypot and math.acos per vertex."""
    vertex = np.arange(x.shape[1] - 1) < n[:, None]
    last = np.arange(len(n)), n - 1  # the vertex before the first
    ux, uy = (np.hstack((a[last][:, None], a[:, :-2]))[vertex] - a[:, :-1][vertex] for a in (x, y))
    wx, wy = (a[:, 1:][vertex] - a[:, :-1][vertex] for a in (x, y))
    nu = np.fromiter(map(math.hypot, ux.tolist(), uy.tolist()), float, len(ux))
    nw = np.fromiter(map(math.hypot, wx.tolist(), wy.tolist()), float, len(wx))
    cos = np.clip((ux * wx + uy * wy) / (nu * nw), -1.0, 1.0)
    angles = np.full(vertex.shape, math.pi)
    angles[vertex] = list(map(math.acos, cos.tolist()))
    return angles.min(axis=1)


def _inradii(x: np.ndarray, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The inradius of each polygon of a vertex batch.

    The optimum of the LP "maximize r subject to n_i . z + r <= offset_i"
    over the unit outward edge normals n_i lies at a centre equidistant
    from three edge lines, so every edge triple proposes one centre z and
    each centre scores its distance min_i (offset_i - n_i . z) to the
    nearest edge line.  A score is the radius of a disk that fits, so the
    best score (0 at worst) is the inradius without any feasibility
    tolerance.  Lines past a polygon's last edge repeat its first; triples
    using them or with no centre (det = 0) are left out before dividing.
    """
    if len(n) > OVERLAY_CHUNK:  # polygons OVERLAY_CHUNK at a time bound the per-triple arrays
        rows = [slice(lo, lo + OVERLAY_CHUNK) for lo in range(0, len(n), OVERLAY_CHUNK)]
        return np.concatenate([_inradii(x[r], y[r], n[r]) for r in rows])
    edge = np.arange(x.shape[1] - 1) < n[:, None]
    dx, dy = x[:, 1:] - x[:, :-1], y[:, 1:] - y[:, :-1]
    planes = dy, -dx, dy * x[:, :-1] - dx * y[:, :-1]  # ConvexPolygon.edge_halfplanes
    nrm = np.ones(edge.shape)
    nrm[edge] = list(map(math.hypot, planes[0][edge].tolist(), planes[1][edge].tolist()))
    nx, ny, off = (np.where(edge, c / nrm, (c / nrm)[:, :1]) for c in planes)
    i, j, k = np.array(list(combinations(range(edge.shape[1]), 3)), np.intp).reshape(-1, 3).T
    m11, m12, r1 = nx[:, i] - nx[:, j], ny[:, i] - ny[:, j], off[:, i] - off[:, j]
    m21, m22, r2 = nx[:, i] - nx[:, k], ny[:, i] - ny[:, k], off[:, i] - off[:, k]
    det = m11 * m22 - m12 * m21
    fits = (k < n[:, None]) & (det != 0.0)
    det = np.where(fits, det, 1.0)
    zx, zy = (r1 * m22 - m12 * r2) / det, (m11 * r2 - r1 * m21) / det
    score = reduce(np.minimum, (off[:, e, None] - (nx[:, e, None] * zx + ny[:, e, None] * zy)
                                for e in range(off.shape[1])))  # line by line: (rows, triples) arrays
    return np.where(fits & (score > 0.0), score, 0.0).max(axis=1, initial=0.0)


def monomial_integral(p: ConvexPolygon, ax: int, ay: int) -> float:
    """Exact integral of x^ax * y^ay over the polygon, for ax + ay <= 2.

    Fan triangulation plus the closed-form quadratic triangle formulas.
    """
    if ax + ay > 2 or ax < 0 or ay < 0:
        raise ValueError("monomial_integral supports total degree <= 2")
    verts = p.vertices
    if len(verts) < 3:
        return 0.0
    total = 0.0
    x0, y0 = verts[0]
    for i in range(1, len(verts) - 1):
        x1, y1 = verts[i]
        x2, y2 = verts[i + 1]
        a = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        if ax == 0 and ay == 0:
            total += a
        elif ax == 1 and ay == 0:
            total += a * (x0 + x1 + x2) / 3.0
        elif ax == 0 and ay == 1:
            total += a * (y0 + y1 + y2) / 3.0
        elif ax == 2 and ay == 0:
            total += a / 6.0 * (x0 * x0 + x1 * x1 + x2 * x2 + x0 * x1 + x0 * x2 + x1 * x2)
        elif ax == 0 and ay == 2:
            total += a / 6.0 * (y0 * y0 + y1 * y1 + y2 * y2 + y0 * y1 + y0 * y2 + y1 * y2)
        else:
            total += a / 12.0 * (
                (x0 + x1 + x2) * (y0 + y1 + y2) + x0 * y0 + x1 * y1 + x2 * y2
            )
    return total


# ---------------------------------------------------------------------------
# Octagon kernel
# ---------------------------------------------------------------------------
#
# The tent family's region, branch domains and images, their pullbacks, the
# grid squares and their intersections all have edges along x, y, x + y and
# x - y: each is an octagon
# {x in [xl, xh], y in [yl, yh], x + y in [ul, uh], x - y in [vl, vh]}
# (Mine, "The octagon abstract domain", HOSC 19, 2006), held as a column in
# _box's layout, whose row k bounds the form _FORMS[k] from below.  Two
# octagons meet in the entrywise maximum of their columns.

OVERLAY_CHUNK = 2048  # grid squares, candidate pairs or rows per numpy batch
OCTILINEAR_TOL = 1e-9  # relative error of a linear part's gradients off the forms
_FORMS = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [-1, 0], [0, -1], [-1, -1], [-1, 1]], float)


def _box(verts) -> tuple[float, ...]:
    """The bounding box and the diagonal box of a vertex list, as the
    minima of x, y, u = x + y and v = x - y over it, then the negated
    maxima."""
    (xlo, ylo), *rest = verts
    xhi, yhi = xlo, ylo
    ulo = uhi = xlo + ylo
    vlo = vhi = xlo - ylo
    for x, y in rest:
        if x < xlo:
            xlo = x
        elif x > xhi:
            xhi = x
        if y < ylo:
            ylo = y
        elif y > yhi:
            yhi = y
        u = x + y
        if u < ulo:
            ulo = u
        elif u > uhi:
            uhi = u
        v = x - y
        if v < vlo:
            vlo = v
        elif v > vhi:
            vhi = v
    return (xlo, ylo, ulo, vlo, -xhi, -yhi, -uhi, -vhi)


def _tight(x, y, u, v, nx, ny, nu, nv) -> tuple[np.ndarray, ...]:
    """The best lower bounds of x, y, x + y and x - y that the rows of a
    column give, each by itself or as a sum of two others: by LP duality in
    the plane, the forms' minima over a nonempty octagon."""
    return (
        np.maximum(np.maximum(x, 0.5 * (u + v)), np.maximum(u + ny, v + y)),
        np.maximum(np.maximum(y, 0.5 * (u + nv)), np.maximum(u + nx, x + nv)),
        np.maximum(np.maximum(u, x + y), np.maximum(2.0 * x + nv, 2.0 * y + v)),
        np.maximum(np.maximum(v, x + ny), np.maximum(2.0 * x + nu, u + 2.0 * ny)),
    )


def _close(b: np.ndarray) -> np.ndarray:
    """Each column of b with every bound tightened to its form's minimum."""
    return np.array(_tight(*b) + _tight(*b[4:], *b[:4]))


def _depths(b: np.ndarray) -> list[np.ndarray]:
    """The legs of the isosceles triangles that the diagonal bounds of each
    closed column cut off its bounding box, at the bottom left, bottom
    right, top right and top left corners; 0 where a corner is uncut."""
    x, y, u, v, nx, ny, nu, nv = b
    cuts = (u - (x + y), nv - (nx + y), nu - (nx + ny), v - (x + ny))
    return [np.maximum(c, 0.0) for c in cuts]


def _area(b: np.ndarray) -> np.ndarray:
    """The area of each closed column of b: its bounding box less the four
    corner triangles, and 0 where some range is empty or a point."""
    area = (b[0] + b[4]) * (b[1] + b[5])
    for depth in _depths(b):
        area -= 0.5 * (depth * depth)
    flat = (b[:4] + b[4:] >= 0.0).any(axis=0)
    return np.where(flat | ~(area > 0.0), 0.0, area)


def _vertices(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The corners of each closed column of b, counter-clockwise from the
    bottom left, as a padded batch (x, y, n): row k holds n[k] vertices in
    x[k, :n[k]] and y[k, :n[k]], the first of them again, then zeros.

    A box corner cut by at most EPS_GEOM, as closing can cut one by
    rounding alone, is a vertex as it is, so a grid cell keeps the uncut
    corners of its closed box.  A corner cut deeper gives the two ends of
    its diagonal edge.  Of an axis edge at most EPS_GEOM long, the end
    that is a cut point is left out, as _dedup merges such vertices.
    """
    xl, yl, ul, vl = b[:4]
    xh, yh, uh, vh = -b[4:]
    bl, br, tr, tl = cut = np.array(_depths(b)) > EPS_GEOM
    # Two points per corner, both the corner where it is uncut.
    x = np.array([xl, np.where(bl, ul - yl, xl), np.where(br, vh + yl, xh), xh,
                  xh, np.where(tr, uh - yh, xh), np.where(tl, vl + yh, xl), xl])
    y = np.array([np.where(bl, ul - xl, yl), yl, yl, np.where(br, xh - vh, yl),
                  np.where(tr, uh - xh, yh), yh, yh, np.where(tl, xl - vl, yh)])
    ends = [2, 4, 6, 0]  # the axis edge after corner c runs from 2c + 1 to ends[c]
    short = np.abs(x[ends] - x[1::2]) + np.abs(y[ends] - y[1::2]) <= EPS_GEOM
    keep = np.ones(x.shape, dtype=bool)
    keep[1::2] = cut & ~short
    keep[ends] &= ~(short & ~cut)
    return _padded(keep.sum(axis=0), x.T[keep.T], y.T[keep.T])


def _padded(n: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The vertex batch (x, y, n) of polygons with n[k] vertices, listed in xs, ys."""
    slots = np.arange(n.max(initial=0) + 1) < n[:, None]
    x, y = np.zeros(slots.shape), np.zeros(slots.shape)
    x[slots], y[slots] = xs, ys
    rows = np.arange(len(n))
    x[rows, n], y[rows, n] = x[:, 0], y[:, 0]
    return x, y, n


def _batch(vertex_lists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex lists as a vertex batch (x, y, n) in _vertices' layout."""
    n = np.fromiter(map(len, vertex_lists), np.intp, len(vertex_lists))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(vertex_lists)), float, 2 * int(n.sum()))
    return _padded(n, flat[0::2], flat[1::2])


def _boxes(x: np.ndarray, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The _box columns of the nonempty polygons of a vertex batch."""
    forms = np.array((x, y, x + y, x - y))
    mask = np.arange(x.shape[1]) <= n[:, None]  # the vertices and the first again
    return np.concatenate((np.where(mask, forms, np.inf).min(axis=2),
                           -np.where(mask, forms, -np.inf).max(axis=2)))


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Each row's sum, taken column by column from 0.0 as a Python loop
    adds the terms one at a time, so that it matches that loop bit for bit."""
    s = np.zeros(len(terms))
    for column in terms.T:
        s = s + column
    return s


def _centroids(x: np.ndarray, y: np.ndarray, n: np.ndarray, area: np.ndarray) -> tuple[np.ndarray, ...]:
    """The centroid of each polygon of a vertex batch, given its area,
    EPS_AREA or more, as (x, y) arrays: the edge sums taken vertex by
    vertex, over 6 * area."""
    x0, y0, x1, y1 = x[:, :-1], y[:, :-1], x[:, 1:], y[:, 1:]
    w = np.where(np.arange(x.shape[1] - 1) < n[:, None], x0 * y1 - x1 * y0, 0.0)
    return _sequential_sum((x0 + x1) * w) / (6.0 * area), _sequential_sum((y0 + y1) * w) / (6.0 * area)


def _octagons(polys, what: str) -> np.ndarray:
    """The _box columns of nonempty convex polygons as an (8, n) array:
    NotOctilinear where a polygon's area is off its octagon's by more than
    EPS_GEOM times its box's perimeter, more than merging vertices EPS_GEOM
    apart can cut off (clipping and _vertices do so near t = 1)."""
    b = np.array([_box(p.vertices) for p in polys], dtype=float).reshape(-1, 8).T
    areas = np.array([p.area for p in polys], dtype=float)
    slack = 2.0 * EPS_GEOM * -(b[0] + b[1] + b[4] + b[5])
    bad = np.flatnonzero(~(np.abs(_area(b) - areas) <= slack))
    if bad.size:
        k = bad[0]
        raise NotOctilinear(f"{what} {k} has edges off the directions x, y, x + y and x - y "
                            f"(area {areas[k]:.17g}, its octagon's {_area(b)[k]:.17g})")
    return b


def _image_plan(maps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(perm, scale, shift), (8, len(maps)) arrays with f_k(maps[i](p)) =
    scale[k, i] * f_perm[k, i](p) + shift[k, i] for the forms f_k of
    _FORMS: maps[i] sends the octagon of a column b onto that of
    scale[:, i] * b[perm[:, i]] + shift[:, i].  SingularMatrix where a
    linear part is singular, NotOctilinear where it mixes the four
    directions."""
    lin = np.array([m.linear for m in maps], dtype=float).reshape(-1, 2, 2)
    det = np.abs(lin[:, 0, 0] * lin[:, 1, 1] - lin[:, 0, 1] * lin[:, 1, 0])
    if not (det > EPS_GEOM).all():
        raise SingularMatrix(f"affine map with |det| = {float(det.min())!r} is not a bijection")
    grads = _FORMS @ lin  # (maps, forms, 2): the gradient of f_k after maps[i]
    dots = grads @ _FORMS.T
    perm = np.argmax(dots / np.hypot(*_FORMS.T), axis=2)
    scale = np.take_along_axis(dots, perm[..., None], axis=2)[..., 0] / (_FORMS[perm] ** 2).sum(axis=2)
    off = np.abs(grads - scale[..., None] * _FORMS[perm]).max(axis=2)
    bad = np.flatnonzero(~(off <= OCTILINEAR_TOL * scale).all(axis=1))
    if bad.size:
        raise NotOctilinear(f"linear part {tuple(maps[bad[0]].linear)} does not map the directions "
                            "x, y, x + y and x - y onto each other, as the octagon kernel needs")
    shift = np.array([m.shift for m in maps], dtype=float).reshape(-1, 2) @ _FORMS.T
    return perm.T, scale.T, shift.T


def _rows(x: np.ndarray, y: np.ndarray, n: np.ndarray, *columns):
    """Each polygon of a vertex batch (x, y, n) as _vertices lays it out, as
    Python values: its vertex count, its vertex list x0, y0, x1, y1, ...,
    then its entry of each per-polygon column, converted OVERLAY_CHUNK rows
    at a time to keep the tolist() temporaries small."""
    for lo in range(0, len(n), OVERLAY_CHUNK):
        rows = slice(lo, lo + OVERLAY_CHUNK)
        xy = np.stack((x[rows], y[rows]), axis=-1).reshape(len(n[rows]), -1)
        for count, xy_row, *rest in zip(
            n[rows].tolist(), xy.tolist(), *(c[rows].tolist() for c in columns)
        ):
            yield (count, xy_row[: 2 * count], *rest)


def _polygons(x: np.ndarray, y: np.ndarray, n: np.ndarray, areas: np.ndarray) -> tuple:
    """The polygons of a vertex batch as ConvexPolygons with these areas."""
    rows = _rows(x, y, n, areas)
    return tuple(ConvexPolygon._clean(tuple(zip(xy[0::2], xy[1::2])), a) for _, xy, a in rows)
