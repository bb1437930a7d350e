"""Piecewise-constant polygonal densities and the pushforward operator.

A density is a list of (convex cell, value) pairs tiling a region mod 0.
The pushforward of such a density under a piecewise-affine map is again
piecewise constant, and is computed exactly: branch images are overlaid
into a common convex partition by iterated refinement, with contributions
summed per overlay cell.  Variation, L^p norms, L1 distances, Cesaro
averaging, and the Ulam discretization are built on the same machinery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np
import scipy.sparse as sp

from . import geom2d
from .errors import (
    CellExplosion,
    ParameterOutOfRange,
    RegionMismatch,
    ResolutionTooLow,
    SingularMatrix,
    ZeroVariation,
)
from .geom2d import (
    EPS_AREA,
    EPS_GEOM,
    SNAP,
    ConvexPolygon,
    affine_image,
    intersect,
    snap_key,
)
from .maps import MAX_CELLS, PiecewiseMap


@dataclass(frozen=True)
class PiecewisePolyDensity:
    """Piecewise-constant function over a convex polygonal partition.

    Unsigned densities (the default) must have nonnegative values; signed
    variants are allowed for linear-combination diagnostics and must be
    flagged at construction.
    """

    region: ConvexPolygon
    cells: tuple[tuple[ConvexPolygon, float], ...]
    signed: bool = False

    def __post_init__(self):
        if not self.signed:
            for _, v in self.cells:
                if v < -1e-12 or not math.isfinite(v):
                    raise ValueError(f"unsigned density has invalid value {v!r}")

    def mass(self) -> float:
        return sum(v * poly.area for poly, v in self.cells)


def _region_keys(region: ConvexPolygon):
    return tuple(sorted(snap_key(v) for v in region.vertices))


def _check_same_region(a: ConvexPolygon, b: ConvexPolygon) -> None:
    if _region_keys(a) != _region_keys(b):
        raise RegionMismatch("operands are defined over different regions")


def _split(poly: ConvexPolygon, clipper: ConvexPolygon):
    """Split poly by clipper: (poly ∩ clipper, convex pieces of poly \\ clipper).

    Peeling the complement edge by edge keeps every piece convex and makes
    the piece areas sum to area(poly) to floating-point accuracy, because
    each step clips against a line and its exact complement.
    """
    rest = poly.vertices
    pieces = []
    for nx, ny, off in clipper.edge_halfplanes():
        outside = geom2d._clip_verts(rest, -nx, -ny, -off)
        if outside:
            piece = ConvexPolygon._wrap(outside)
            if not piece.is_empty:
                pieces.append(piece)
        rest = geom2d._clip_verts(rest, nx, ny, off)
        if not rest:
            break
    return ConvexPolygon._wrap(rest), pieces


class _CellStore:
    """Growable cell partition with a lazy uniform-bin spatial index."""

    def __init__(self, region: ConvexPolygon, nbins: int = 48):
        xmin, ymin, xmax, ymax = region.bbox()
        self.x0 = xmin
        self.y0 = ymin
        self.nbins = nbins
        self.sx = max((xmax - xmin) / nbins, 1e-300)
        self.sy = max((ymax - ymin) / nbins, 1e-300)
        self.polys: list[ConvexPolygon | None] = []
        self.values: list[float] = []
        self.bins: dict[tuple[int, int], list[int]] = {}
        self.add(region, 0.0)

    def _bin_span(self, bbox):
        bx0 = min(max(int((bbox[0] - self.x0) / self.sx), 0), self.nbins - 1)
        by0 = min(max(int((bbox[1] - self.y0) / self.sy), 0), self.nbins - 1)
        bx1 = min(max(int((bbox[2] - self.x0) / self.sx), 0), self.nbins - 1)
        by1 = min(max(int((bbox[3] - self.y0) / self.sy), 0), self.nbins - 1)
        return bx0, by0, bx1, by1

    def add(self, poly: ConvexPolygon, value: float) -> None:
        idx = len(self.polys)
        self.polys.append(poly)
        self.values.append(value)
        bx0, by0, bx1, by1 = self._bin_span(poly.bbox())
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                self.bins.setdefault((bx, by), []).append(idx)

    def candidates(self, bbox) -> list[int]:
        bx0, by0, bx1, by1 = self._bin_span(bbox)
        seen = set()
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                seen.update(self.bins.get((bx, by), ()))
        return sorted(seen)


def _refine(
    region: ConvexPolygon,
    tiles: Iterable[tuple[ConvexPolygon, float]],
    max_cells: int = MAX_CELLS,
) -> tuple[tuple[ConvexPolygon, float], ...]:
    """Partition region by a sequence of value-carrying convex tiles.

    The result tiles region mod 0; the value on each output cell is the sum
    of the values of the tiles covering it (uncovered parts keep 0).  Cells
    are returned sorted by snapped centroid for deterministic downstream
    output.
    """
    store = _CellStore(region)
    for tile, tv in tiles:
        if tile.is_empty or tv == 0.0:
            continue
        tb = tile.bbox()
        for idx in store.candidates(tb):
            poly = store.polys[idx]
            if poly is None:
                continue
            pb = poly.bbox()
            if pb[0] > tb[2] or pb[2] < tb[0] or pb[1] > tb[3] or pb[3] < tb[1]:
                continue
            inter, outside = _split(poly, tile)
            if inter.is_empty:
                continue
            if not outside:
                store.values[idx] += tv
                continue
            store.polys[idx] = inter
            store.values[idx] += tv
            for piece in outside:
                store.add(piece, store.values[idx] - tv)
            if len(store.polys) > max_cells:
                raise CellExplosion(
                    f"overlay arrangement exceeded {max_cells} cells"
                )
    cells = [
        (poly, value)
        for poly, value in zip(store.polys, store.values)
        if poly is not None and not poly.is_empty
    ]
    cells.sort(key=lambda cv: snap_key(cv[0].centroid()))
    return tuple(cells)


def push_forward(m: PiecewiseMap, f: PiecewisePolyDensity) -> PiecewisePolyDensity:
    """Exact pushforward of f under m.

    Each branch maps each cell piece affinely and scales its value by the
    inverse Jacobian; the resulting image tiles are overlaid into a common
    partition of the region with contributions summed where images overlap.
    """
    _check_same_region(f.region, m.region)
    tiles = []
    for branch in m.branches:
        inv_jac = 1.0 / branch.jacobian_abs
        for poly, v in f.cells:
            if v == 0.0:
                continue
            piece = intersect(poly, branch.domain)
            if piece.is_empty:
                continue
            image = affine_image(branch.map, piece)
            if not image.is_empty:
                tiles.append((image, v * inv_jac))
    cells = _refine(f.region, tiles)
    return PiecewisePolyDensity(f.region, cells, f.signed)


def uniform_density(region: ConvexPolygon) -> PiecewisePolyDensity:
    """The probability density that is constant on the region."""
    return PiecewisePolyDensity(region, ((region, 1.0 / region.area),))


def indicator_density(
    region: ConvexPolygon, support: ConvexPolygon, value: float = 1.0
) -> PiecewisePolyDensity:
    """value * chi_support, completed by zero cells to tile the region."""
    cells = _refine(region, [(support, value)])
    return PiecewisePolyDensity(region, cells, signed=value < 0.0)


def add_scaled(
    f: PiecewisePolyDensity,
    alpha: float,
    g: PiecewisePolyDensity,
    beta: float,
) -> PiecewisePolyDensity:
    """alpha*f + beta*g on the overlay of the two partitions."""
    _check_same_region(f.region, g.region)
    if _same_partition(f, g):
        cells = tuple(
            (poly, alpha * vf + beta * vg)
            for (poly, vf), (_, vg) in zip(f.cells, g.cells)
        )
    else:
        tiles = [(poly, alpha * v) for poly, v in f.cells]
        tiles += [(poly, beta * v) for poly, v in g.cells]
        cells = _refine(f.region, tiles)
    signed = True
    if alpha >= 0.0 and beta >= 0.0 and not f.signed and not g.signed:
        signed = False
    return PiecewisePolyDensity(f.region, cells, signed)


def _same_partition(f: PiecewisePolyDensity, g: PiecewisePolyDensity) -> bool:
    if len(f.cells) != len(g.cells):
        return False
    for (pf, _), (pg, _) in zip(f.cells, g.cells):
        if len(pf.vertices) != len(pg.vertices):
            return False
        if any(snap_key(a) != snap_key(b) for a, b in zip(pf.vertices, pg.vertices)):
            return False
    return True


def lp_norm(f: PiecewisePolyDensity, p: float = 1.0) -> float:
    """(sum |v|^p * area)^(1/p); p = 1 is the L1 norm."""
    if p < 1.0:
        raise ParameterOutOfRange(f"lp_norm needs p >= 1, got {p!r}")
    if p == 1.0:
        return sum(abs(v) * poly.area for poly, v in f.cells)
    total = sum(abs(v) ** p * poly.area for poly, v in f.cells)
    return total ** (1.0 / p)


def l1_distance(f: PiecewisePolyDensity, g: PiecewisePolyDensity) -> float:
    """L1 distance on the overlay of the two partitions."""
    _check_same_region(f.region, g.region)
    if _same_partition(f, g):
        return sum(
            abs(vf - vg) * poly.area
            for (poly, vf), (_, vg) in zip(f.cells, g.cells)
        )
    tiles = [(poly, v) for poly, v in f.cells]
    tiles += [(poly, -v) for poly, v in g.cells]
    cells = _refine(f.region, tiles)
    return sum(abs(v) * poly.area for poly, v in cells)


def variation(f: PiecewisePolyDensity) -> float:
    """Total variation: sum over arrangement edges of |jump| * length.

    Edges are grouped by the line supporting them (direction canonicalized,
    snapped at 1e-9); along each line a sweep over edge-interval endpoints
    accumulates |left value - right value| times subinterval length, so
    partially matched edges are split exactly at projected endpoints.  The
    function is extended by zero outside the region, so region-boundary
    edges contribute their full jump.
    """
    entries: dict[tuple[int, int, int], list] = {}
    for poly, v in f.cells:
        if poly.is_empty:
            continue
        for (a, b) in poly.edges():
            dx = b[0] - a[0]
            dy = b[1] - a[1]
            length = math.hypot(dx, dy)
            ux, uy = dx / length, dy / length
            side = 1.0
            if ux < -1e-12 or (abs(ux) <= 1e-12 and uy < 0.0):
                ux, uy, side = -ux, -uy, -1.0
            nx, ny = -uy, ux
            off = nx * a[0] + ny * a[1]
            key = (round(nx / SNAP), round(ny / SNAP), round(off / SNAP))
            s0 = ux * a[0] + uy * a[1]
            s1 = ux * b[0] + uy * b[1]
            if s0 > s1:
                s0, s1 = s1, s0
            if side > 0.0:
                entries.setdefault(key, []).append((s0, v, 0.0))
                entries[key].append((s1, -v, 0.0))
            else:
                entries.setdefault(key, []).append((s0, 0.0, v))
                entries[key].append((s1, 0.0, -v))
    total = 0.0
    for events in entries.values():
        events.sort()
        left = right = 0.0
        prev = None
        for s, dleft, dright in events:
            if prev is not None and s > prev:
                total += abs(left - right) * (s - prev)
            left += dleft
            right += dright
            prev = s
    return total


def sobolev_ratio(f: PiecewisePolyDensity) -> float:
    """||f||_2 / V(f); compare against the sharp planar constant 1/(2*sqrt(pi))."""
    v = variation(f)
    if v <= EPS_AREA:
        raise ZeroVariation("variation is zero; ratio undefined")
    return lp_norm(f, 2.0) / v


# ---------------------------------------------------------------------------
# Batched grid overlay
# ---------------------------------------------------------------------------
#
# The Ulam matrix, the grid itself and grid projections all overlay convex
# polygons on the square grid.  The kernel below does that for whole
# batches of polygons with numpy, repeating geom2d's scalar operations in
# the same order (the same edge half-planes, the same crossing parameter,
# the same cyclic vertex merge, sliver rule and sequential shoelace sum),
# so every area and vertex is bit-identical to ConvexPolygon, intersect and
# affine_image.

OVERLAY_CHUNK = 2048  # (polygon, half-plane set) pairs clipped per numpy batch


class _Polys(NamedTuple):
    """Convex polygons as a padded vertex batch: row k holds n[k] vertices
    in x[k, :n[k]] and y[k, :n[k]], and what follows is padding; n[k] = 0
    is Empty."""

    x: np.ndarray
    y: np.ndarray
    n: np.ndarray

    def take(self, rows) -> "_Polys":
        return _Polys(self.x[rows], self.y[rows], self.n[rows])


def _pack(polys) -> _Polys:
    n = np.array([len(p.vertices) for p in polys], dtype=np.intp)
    slots = np.arange(n.max(initial=0)) < n[:, None]
    x = np.zeros(slots.shape)
    y = np.zeros(slots.shape)
    if slots.any():
        xy = np.array([v for p in polys for v in p.vertices])
        x[slots] = xy[:, 0]
        y[slots] = xy[:, 1]
    return _Polys(x, y, n)


def _compact(keep: np.ndarray, x: np.ndarray, y: np.ndarray) -> _Polys:
    """The kept entries of each row, moved to the front in order."""
    n = keep.sum(axis=1)
    slots = np.arange(n.max(initial=0)) < n[:, None]
    out_x = np.zeros(slots.shape)
    out_y = np.zeros(slots.shape)
    out_x[slots] = x[keep]
    out_y[slots] = y[keep]
    return _Polys(out_x, out_y, n)


def _widen(p: _Polys, width: int) -> _Polys:
    pad = ((0, 0), (0, width - p.x.shape[1]))
    return _Polys(np.pad(p.x, pad), np.pad(p.y, pad), p.n)


def _cyclic(a: np.ndarray, n: np.ndarray, step: int) -> np.ndarray:
    """Each row's predecessor (step -1) or successor (step 1) entries,
    wrapping around at the row's count n."""
    out = np.zeros_like(a)
    if a.shape[1]:
        rows = np.arange(len(n))
        last = np.maximum(n - 1, 0)
        if step < 0:
            out[:, 1:] = a[:, :-1]
            out[:, 0] = a[rows, last]
        else:
            out[:, :-1] = a[:, 1:]
            out[rows, last] = a[:, 0]
    return out


def _halfplanes(p: _Polys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ConvexPolygon.edge_halfplanes of every row as (nx, ny, off) arrays,
    padded with the half-plane 0 <= 1, which clips nothing."""
    valid = np.arange(p.x.shape[1]) < p.n[:, None]
    dx = _cyclic(p.x, p.n, 1) - p.x
    dy = _cyclic(p.y, p.n, 1) - p.y
    return (
        np.where(valid, dy, 0.0),
        np.where(valid, -dx, 0.0),
        np.where(valid, dy * p.x - dx * p.y, 1.0),
    )


def _clip(p: _Polys, nx, ny, off) -> _Polys:
    """geom2d._clip_verts on every row, each against its own half-plane
    {nx*x + ny*y <= off}: each vertex emits the crossing point of the edge
    that ends at it, then itself if inside."""
    x, y, n = p
    width = x.shape[1]
    valid = np.arange(width) < n[:, None]
    d = off[:, None] - (nx[:, None] * x + ny[:, None] * y)
    dprev = _cyclic(d, n, -1).ravel()
    inside = d >= 0.0
    cross = (valid & (inside != (dprev >= 0.0).reshape(d.shape))).ravel()
    keep = (valid & inside).ravel()
    emitted = cross.astype(np.intp) + keep
    end = np.cumsum(emitted.reshape(d.shape), axis=1)
    count = end[:, -1] if width else np.zeros(len(n), dtype=np.intp)
    out_w = count.max(initial=0)
    # Flat indices: vertex (r, c) is r * width + c, output slot s of row r
    # is r * out_w + s.
    x, y, d, end = x.ravel(), y.ravel(), d.ravel(), end.ravel()
    out_x = np.zeros(len(n) * out_w)
    out_y = np.zeros(len(n) * out_w)
    at = np.flatnonzero(cross)
    r = at // width
    prev = np.where(at > r * width, at - 1, r * width + n[r] - 1)
    t = dprev[at] / (dprev[at] - d[at])
    slot = r * out_w + end[at] - emitted[at]
    out_x[slot] = x[prev] + t * (x[at] - x[prev])
    out_y[slot] = y[prev] + t * (y[at] - y[prev])
    at = np.flatnonzero(keep)
    slot = at // width * out_w + end[at] - 1
    out_x[slot] = x[at]
    out_y[slot] = y[at]
    return _Polys(out_x.reshape(len(n), out_w), out_y.reshape(len(n), out_w), count)


def _clip_all(p: _Polys, planes) -> _Polys:
    """Each row clipped by the row of (nx, ny, off) half-plane arrays, in
    column order, as intersect clips by the other polygon's edges."""
    for nx, ny, off in zip(*(h.T for h in planes)):
        p = _clip(p, nx, ny, off)
    return p


def _finish(p: _Polys) -> tuple[_Polys, np.ndarray]:
    """ConvexPolygon._wrap on every row: geom2d._dedup, then Empty below
    three vertices or EPS_AREA; returns the rows and their areas."""
    x, y, n = p
    eps2 = EPS_GEOM * EPS_GEOM
    keep = np.zeros(x.shape, dtype=bool)
    last_x = np.zeros(len(n))
    last_y = np.zeros(len(n))
    seen = np.zeros(len(n), dtype=bool)
    for k in range(x.shape[1]):
        dx = x[:, k] - last_x
        dy = y[:, k] - last_y
        take = (k < n) & ~(seen & (dx * dx + dy * dy <= eps2))
        keep[:, k] = take
        last_x = np.where(take, x[:, k], last_x)
        last_y = np.where(take, y[:, k], last_y)
        seen |= take
    x, y, n = _compact(keep, x, y)
    if x.shape[1]:
        rows = np.arange(len(n))
        while True:
            last = np.maximum(n - 1, 0)
            dx = x[:, 0] - x[rows, last]
            dy = y[:, 0] - y[rows, last]
            drop = (n >= 2) & (dx * dx + dy * dy <= eps2)
            if not drop.any():
                break
            n = n - drop
    valid = np.arange(x.shape[1]) < n[:, None]
    p = _Polys(np.where(valid, x, 0.0), np.where(valid, y, 0.0), n)
    terms = np.where(valid, p.x * _cyclic(p.y, n, 1) - _cyclic(p.x, n, 1) * p.y, 0.0)
    s = np.zeros(len(n))
    for k in range(terms.shape[1]):
        s = s + terms[:, k]
    s = 0.5 * s
    empty = (n < 3) | (np.abs(s) < EPS_AREA)
    n = np.where(empty, 0, n)
    width = n.max(initial=0)
    p = _Polys(p.x[:, :width], p.y[:, :width], n)
    return p, np.where(empty, 0.0, np.maximum(s, 0.0))


# ---------------------------------------------------------------------------
# Ulam discretization
# ---------------------------------------------------------------------------


def _boxes(squares: np.ndarray, nx: int, origin, resolution: int) -> _Polys:
    """Lattice squares, numbered row-major with nx per row from the square
    at lattice index origin, as geom2d.box(ix / n, iy / n, (ix + 1) / n,
    (iy + 1) / n) vertex rows."""
    iy, ix = np.divmod(squares, nx)
    ix = ix + origin[0]
    iy = iy + origin[1]
    left, right = ix / resolution, (ix + 1) / resolution
    bottom, top = iy / resolution, (iy + 1) / resolution
    return _Polys(
        np.stack([left, right, right, left], axis=1),
        np.stack([bottom, bottom, top, top], axis=1),
        np.full(len(squares), 4, dtype=np.intp),
    )


@dataclass(frozen=True)
class UlamGrid:
    """Axis-aligned squares of side 1/resolution clipped to the region.

    ``polys`` holds the nonempty clipped squares, in row-major order of the
    squares, as one vertex batch, with their areas in ``cell_areas``.
    ``lookup`` maps squares, numbered row-major from the square at lattice
    index ``origin``, to cells (as a 2D array), -1 where the square misses
    the region.  ``cells`` builds the same cells as ConvexPolygons on first
    read.
    """

    region: ConvexPolygon
    resolution: int
    polys: _Polys = field(compare=False, repr=False)
    cell_areas: np.ndarray = field(compare=False, repr=False)
    lookup: np.ndarray = field(compare=False, repr=False)
    origin: tuple[int, int] = field(compare=False, repr=False)

    @staticmethod
    def build(region: ConvexPolygon, resolution: int) -> "UlamGrid":
        if resolution < 2:
            raise ParameterOutOfRange(f"resolution must be >= 2, got {resolution}")
        n = resolution
        xmin, ymin, xmax, ymax = region.bbox()
        ix0 = math.floor(xmin * n + SNAP)
        ix1 = math.ceil(xmax * n - SNAP)
        iy0 = math.floor(ymin * n + SNAP)
        iy1 = math.ceil(ymax * n - SNAP)
        nx, ny = max(ix1 - ix0, 0), max(iy1 - iy0, 0)
        if nx * ny > MAX_CELLS:
            raise CellExplosion(
                f"resolution {resolution} needs {nx * ny} grid squares, "
                f"more than the budget of {MAX_CELLS}"
            )
        gx = np.arange(ix0, ix1 + 1) / n
        gy = np.arange(iy0, iy1 + 1) / n
        # Square corners against the region's edge half-planes in clipping
        # order, computed as the clip computes them.  While every corner has
        # been inside, the clip has left the square as it is: it is its own
        # intersection with the region if that holds to the last edge, and
        # the clip empties it at the first edge with every corner outside.
        inside = np.ones((ny, nx), dtype=bool)
        outside = np.zeros((ny, nx), dtype=bool)
        for hx, hy, off in region.edge_halfplanes():
            d = off - (hx * gx[None, :] + hy * gy[:, None])
            corners = (d[:-1, :-1], d[:-1, 1:], d[1:, 1:], d[1:, :-1])
            outside |= inside & np.logical_and.reduce([c < 0.0 for c in corners])
            inside &= np.logical_and.reduce([c >= 0.0 for c in corners])
        squares = np.flatnonzero(~outside)
        crossing = np.flatnonzero(~inside.ravel()[squares])
        boxes = _boxes(squares, nx, (ix0, iy0), n)
        region_planes = _halfplanes(_pack([region]))
        clipped = _clip_all(
            boxes.take(crossing),
            [np.broadcast_to(h, (len(crossing), h.shape[1])) for h in region_planes],
        )
        width = max(4, clipped.x.shape[1])
        boxes = _widen(boxes, width)
        boxes.x[crossing], boxes.y[crossing], boxes.n[crossing] = _widen(clipped, width)
        polys, areas = _finish(boxes)
        hit = np.flatnonzero(polys.n)
        lookup = np.full(nx * ny, -1, dtype=np.intp)
        lookup[squares[hit]] = np.arange(len(hit))
        return UlamGrid(
            region, resolution, polys.take(hit), areas[hit], lookup.reshape(ny, nx), (ix0, iy0)
        )

    @functools.cached_property
    def cells(self) -> tuple[ConvexPolygon, ...]:
        """The cells as ConvexPolygons, built on first read OVERLAY_CHUNK
        rows at a time, so that the tolist() temporaries stay small."""
        cells = []
        for lo in range(0, len(self.cell_areas), OVERLAY_CHUNK):
            rows = slice(lo, lo + OVERLAY_CHUNK)
            p = self.polys.take(rows)
            for xs, ys, count, area in zip(
                p.x.tolist(), p.y.tolist(), p.n.tolist(), self.cell_areas[rows].tolist()
            ):
                cells.append(ConvexPolygon._clean(tuple(zip(xs[:count], ys[:count])), area))
        return tuple(cells)

    def areas(self) -> np.ndarray:
        return self.cell_areas.copy()

    def moments(self, values: np.ndarray, powers) -> list[float]:
        """Integral of x^ax * y^ay against the grid density with these cell
        values, for each (ax, ay) in powers (total degree <= 2).

        Per cell, geom2d.monomial_integral's fan triangles (0, i, i + 1)
        and closed forms in the same order; cells are then summed left to
        right, as Python 3.10/3.11 ``sum`` does.
        """
        x, y, n = self.polys
        x0, y0 = x[:, :1], y[:, :1]
        x1, y1, x2, y2 = x[:, 1:-1], y[:, 1:-1], x[:, 2:], y[:, 2:]
        a = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        fan = np.arange(2, x.shape[1]) < n[:, None]
        terms = {
            (0, 0): a,
            (1, 0): a * (x0 + x1 + x2) / 3.0,
            (0, 1): a * (y0 + y1 + y2) / 3.0,
            (2, 0): a / 6.0 * (x0 * x0 + x1 * x1 + x2 * x2 + x0 * x1 + x0 * x2 + x1 * x2),
            (0, 2): a / 6.0 * (y0 * y0 + y1 * y1 + y2 * y2 + y0 * y1 + y0 * y2 + y1 * y2),
            (1, 1): a / 12.0 * ((x0 + x1 + x2) * (y0 + y1 + y2) + x0 * y0 + x1 * y1 + x2 * y2),
        }
        out = []
        for ax_ay in powers:
            if tuple(ax_ay) not in terms:
                raise ValueError("moments supports total degree <= 2")
            per_cell = np.zeros(len(n))
            for column in np.where(fan, terms[tuple(ax_ay)], 0.0).T:
                per_cell = per_cell + column
            out.append(float(np.cumsum(values * per_cell)[-1]))
        return out


def _overlay(grid: UlamGrid, p: _Polys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, j, area of row k ∩ cell j) for every pair with positive area,
    ordered by k and then by j.

    Row k meets the squares from floor(bbox * resolution -/+ SNAP), taken
    in row-major order; candidate (row, square) pairs are made and clipped
    OVERLAY_CHUNK at a time.
    """
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    if not p.x.size:  # no rows, or every row Empty
        return parts[0]
    res = grid.resolution
    ix0, iy0 = grid.origin
    ny, nx = grid.lookup.shape
    x = np.where(np.arange(p.x.shape[1]) < p.n[:, None], p.x, p.x[:, :1])
    y = np.where(np.arange(p.y.shape[1]) < p.n[:, None], p.y, p.y[:, :1])
    lo_x = np.maximum(np.floor(x.min(axis=1) * res - SNAP).astype(np.intp) - ix0, 0)
    hi_x = np.minimum(np.floor(x.max(axis=1) * res + SNAP).astype(np.intp) - ix0, nx - 1)
    lo_y = np.maximum(np.floor(y.min(axis=1) * res - SNAP).astype(np.intp) - iy0, 0)
    hi_y = np.minimum(np.floor(y.max(axis=1) * res + SNAP).astype(np.intp) - iy0, ny - 1)
    width = np.maximum(hi_x - lo_x + 1, 0)
    count = np.where(p.n > 0, width * np.maximum(hi_y - lo_y + 1, 0), 0)
    ends = np.cumsum(count)
    total = int(count.sum())
    for start in range(0, total, OVERLAY_CHUNK):
        pos = np.arange(start, min(start + OVERLAY_CHUNK, total))
        k = np.searchsorted(ends, pos, side="right")
        dy, dx = np.divmod(pos - (ends[k] - count[k]), width[k])
        j = grid.lookup[lo_y[k] + dy, lo_x[k] + dx]
        k, j = k[j >= 0], j[j >= 0]
        _, w = _finish(_clip_all(p.take(k), _halfplanes(grid.polys.take(j))))
        hit = w > 0.0
        parts.append((k[hit], j[hit], w[hit]))
    return tuple(np.concatenate(a) for a in zip(*parts))


@dataclass(frozen=True)
class UlamOperator:
    """Row-stochastic transition matrix between grid cells."""

    grid: UlamGrid
    matrix: sp.csr_matrix


@dataclass(frozen=True)
class DensityVector:
    """Cell-aligned density values, tagged with iteration diagnostics."""

    values: np.ndarray
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True


def build_ulam(m: PiecewiseMap, resolution: int) -> UlamOperator:
    """Ulam matrix: entry (i, j) = m(cell_i ∩ map^-1(cell_j)) / m(cell_i).

    Preimage measures are computed on the image side by exact clipping:
    area(branch_image(cell_i ∩ R_b) ∩ cell_j) / |J_b| for each branch b.
    Rows sum to 1 because the map sends the region into itself.  The
    (cell, branch) pairs go through the overlay kernel OVERLAY_CHUNK at a
    time, in row-major order, so entries come out as the per-cell loop
    appended them.
    """
    grid = UlamGrid.build(m.region, resolution)
    nb = len(m.branches)
    domains = _halfplanes(_pack([br.domain for br in m.branches]))
    lin = np.array([br.map.linear for br in m.branches])
    shift = np.array([br.map.shift for br in m.branches])
    jac = np.array([br.jacobian_abs for br in m.branches])
    det = np.array([br.map.linear.det() for br in m.branches])
    n = len(grid.cell_areas)
    row_nnz = np.zeros(n, dtype=np.int32)
    cols, data = [np.zeros(0, np.int32)], [np.zeros(0)]
    for lo in range(0, n * nb, OVERLAY_CHUNK):
        i, b = np.divmod(np.arange(lo, min(lo + OVERLAY_CHUNK, n * nb)), nb)
        piece, _ = _finish(_clip_all(grid.polys.take(i), [h[b] for h in domains]))
        i, b, piece = i[piece.n > 0], b[piece.n > 0], piece.take(piece.n > 0)
        singular = np.abs(det[b]) <= EPS_GEOM
        if singular.any():
            d = abs(float(det[b[singular][0]]))
            raise SingularMatrix(f"affine map with |det| = {d!r} is not a bijection")
        # affine_image: vertex-wise map, order reversed when det < 0
        a, bb, c, dd = (lin[b, col][:, None] for col in range(4))
        x = a * piece.x + bb * piece.y + shift[b, 0][:, None]
        y = c * piece.x + dd * piece.y + shift[b, 1][:, None]
        k = np.arange(x.shape[1])
        flip = (det[b] < 0.0)[:, None] & (k < piece.n[:, None])
        order = np.where(flip, piece.n[:, None] - 1 - k, k)
        image, image_area = _finish(
            _Polys(np.take_along_axis(x, order, 1), np.take_along_axis(y, order, 1), piece.n)
        )
        ok = image.n > 0
        i, b, image, image_area = i[ok], b[ok], image.take(ok), image_area[ok]
        src, j, w = _overlay(grid, image)
        lost = image_area - np.bincount(src, weights=w, minlength=len(i))
        bad = np.flatnonzero(lost > 1e-9)
        if bad.size:
            raise ResolutionTooLow(
                f"cell {i[bad[0]]} maps outside the gridded region "
                f"(lost image area {float(lost[bad[0]]):g})"
            )
        row_nnz += np.bincount(i[src], minlength=len(row_nnz)).astype(np.int32)
        cols.append(j.astype(np.int32))
        data.append(w / (jac[b[src]] * grid.cell_areas[i[src]]))
    # Rows come out in order, so the entries are already in the order
    # coo_matrix.tocsr places them; it then sums duplicates the same way.
    indptr = np.concatenate([np.zeros(1, np.int32), np.cumsum(row_nnz, dtype=np.int32)])
    matrix = sp.csr_matrix((np.concatenate(data), np.concatenate(cols), indptr), shape=(n, n))
    matrix.sum_duplicates()
    return UlamOperator(grid, matrix)


def stationary_masses(
    transition: "sp.spmatrix | np.ndarray",
    masses0: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> tuple[np.ndarray, int, float, bool]:
    """Fixed probability vector of a row-stochastic matrix by power iteration.

    Iterates the adjoint action p -> p @ T from masses0, renormalizing the
    total mass each step; if the L1 residual plateaus, switches to running
    Cesaro averages of the iterates.  Shared by the 1D and 2D pipelines.
    """
    if sp.issparse(transition):
        adjoint = transition.T.tocsr()
    else:
        adjoint = np.ascontiguousarray(np.asarray(transition, dtype=float).T)
    p = np.asarray(masses0, dtype=float)
    p = p / p.sum()
    residual = math.inf
    history: list[float] = []
    for k in range(1, max_iter + 1):
        q = adjoint @ p
        q = np.asarray(q).ravel()
        q = q / q.sum()
        residual = float(np.abs(q - p).sum())
        p = q
        if residual < tol:
            return p, k, residual, True
        history.append(residual)
        if k >= 400 and history[-1] > 0.999 * history[-200]:
            break
    else:
        return p, max_iter, residual, False
    # Plateau: average subsequent iterates (handles peripheral spectrum).
    avg = p.copy()
    count = 1
    base = len(history)
    for k in range(base + 1, max_iter + 1):
        q = np.asarray(adjoint @ p).ravel()
        q = q / q.sum()
        p = q
        avg = avg + (q - avg) / (count + 1)
        count += 1
        if count % 20 == 0:
            shifted = np.asarray(adjoint @ avg).ravel()
            residual = float(np.abs(shifted / shifted.sum() - avg).sum())
            if residual < tol:
                return avg / avg.sum(), k, residual, True
    shifted = np.asarray(adjoint @ avg).ravel()
    residual = float(np.abs(shifted / shifted.sum() - avg).sum())
    return avg / avg.sum(), max_iter, residual, False


def ulam_fixed(op: UlamOperator, tol: float = 1e-8, max_iter: int = 20000) -> DensityVector:
    """Fixed density of the discretized operator from the uniform start."""
    areas = op.grid.areas()
    p, iters, residual, converged = stationary_masses(op.matrix, areas, tol, max_iter)
    values = p / areas
    return DensityVector(values, iters, residual, converged)


def density_from_vector(grid: UlamGrid, vec: DensityVector) -> PiecewisePolyDensity:
    cells = tuple((poly, float(v)) for poly, v in zip(grid.cells, vec.values))
    return PiecewisePolyDensity(grid.region, cells)


def project_to_grid(f: PiecewisePolyDensity, resolution: int) -> PiecewisePolyDensity:
    """Cell-averaged projection onto the square grid (an L1 contraction
    that preserves mass exactly)."""
    grid = UlamGrid.build(f.region, resolution)
    tiles = [(poly, v) for poly, v in f.cells if v != 0.0 and not poly.is_empty]
    src, j, w = _overlay(grid, _pack([poly for poly, _ in tiles]))
    values = np.array([v for _, v in tiles], dtype=float)
    acc = np.bincount(j, weights=values[src] * w, minlength=len(grid.cell_areas))
    cells = tuple(zip(grid.cells, (acc / grid.cell_areas).tolist()))
    return PiecewisePolyDensity(f.region, cells, f.signed)


class CesaroResult(NamedTuple):
    density: PiecewisePolyDensity
    iterations: int
    residual: float
    converged: bool


def cesaro_fixed_density(
    m: PiecewiseMap,
    f0: PiecewisePolyDensity,
    n_max: int = 64,
    tol: float = 1e-8,
    coarsen: int | None = None,
) -> CesaroResult:
    """Running Cesaro average A_n of the pushforward iterates of f0.

    Stops at the first n with ||P A_n - A_n||_1 < tol, or at n_max with
    converged=False.  ``coarsen`` (a grid resolution) projects every
    iterate onto a fixed square grid to keep cell counts bounded; None
    keeps the arrangement exact.
    """
    if abs(f0.mass() - 1.0) > 1e-9:
        raise ParameterOutOfRange("cesaro_fixed_density expects ||f0||_1 = 1")
    cur = project_to_grid(f0, coarsen) if coarsen else f0
    avg = cur
    n = 0
    residual = math.inf
    while True:
        n += 1
        pushed = push_forward(m, avg)
        if coarsen:
            pushed = project_to_grid(pushed, coarsen)
        residual = l1_distance(pushed, avg)
        if residual < tol or n >= n_max:
            break
        cur = push_forward(m, cur)
        if coarsen:
            cur = project_to_grid(cur, coarsen)
        avg = add_scaled(avg, n / (n + 1.0), cur, 1.0 / (n + 1.0))
    total = avg.mass()
    cells = tuple((poly, v / total) for poly, v in avg.cells)
    out = PiecewisePolyDensity(avg.region, cells, avg.signed)
    return CesaroResult(out, n, residual, residual < tol)


# ---------------------------------------------------------------------------
# CSV export (17-significant-digit, deterministic)
# ---------------------------------------------------------------------------


def density_csv(f: PiecewisePolyDensity) -> str:
    """Cell table: id, area, centroid, value, vertex count and coordinates."""
    from .ioutil import fmt

    max_verts = max((len(poly.vertices) for poly, _ in f.cells), default=0)
    header = ["cell_id", "area", "centroid_x", "centroid_y", "value", "n_vertices"]
    for k in range(max_verts):
        header += [f"v{k}x", f"v{k}y"]
    lines = [",".join(header)]
    for i, (poly, v) in enumerate(f.cells):
        cx, cy = poly.centroid()
        row = [str(i), fmt(poly.area), fmt(cx), fmt(cy), fmt(v), str(len(poly.vertices))]
        for vx, vy in poly.vertices:
            row += [fmt(vx), fmt(vy)]
        row += [""] * (2 * (max_verts - len(poly.vertices)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def ulam_matrix_csv(matrix) -> str:
    """A transition matrix, scipy sparse or dense, as i,j,weight coordinate
    triples of its stored entries (a dense matrix stores its nonzeros), in
    row-major order."""
    from .ioutil import fmt

    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = ["i,j,weight"]
    for i, j, w in zip(coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist()):
        lines.append(f"{i},{j},{fmt(w)}")
    return "\n".join(lines) + "\n"
