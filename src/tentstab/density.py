"""Piecewise-constant polygonal densities and the pushforward operator.

A density is a list of (convex cell, value) pairs tiling a region mod 0.
The pushforward of such a density under a piecewise-affine map is again
piecewise constant, and is computed exactly: branch images are overlaid
into a common convex partition by iterated refinement, with contributions
summed per overlay cell.  The pushforward and the refinement find the
cells a domain or tile may meet with one box test and clip them on one
path, geom2d._cut; the refinement settles a cell that an octilinear tile
contains on their octagon boxes.  Variation, L^p norms, L1 distances and
exact Cesaro averaging are built on that arrangement.  The Ulam
discretization and grid projections overlay octagons on a square grid in
batched numpy, and coarsened Cesaro averaging runs on the Ulam matrix.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from . import geom2d
from .errors import CellExplosion, ParameterOutOfRange, RegionMismatch, ResolutionTooLow
from .errors import SingularMatrix
from .geom2d import EPS_AREA, EPS_GEOM, OVERLAY_CHUNK, SNAP, ConvexPolygon, intersect, ordered_sum
from .geom2d import _area, _batch, _box, _boxes, _centroids, _close, _cut, _image_plan, _kept
from .geom2d import _mapped, _octagons, _polygons, _sequential_sum, _vertices, snap_key
from .maps import MAX_CELLS, PiecewiseMap

if TYPE_CHECKING:  # scipy.sparse is loaded only where an Ulam matrix is built or read
    import scipy.sparse as sp


@dataclass(frozen=True)
class PiecewisePolyDensity:
    """Piecewise-constant function over a convex polygonal partition.

    Values must be finite.  Unsigned densities (the default) must also be
    nonnegative; signed variants are allowed for linear-combination
    diagnostics and must be flagged at construction.
    """

    region: ConvexPolygon
    cells: tuple[tuple[ConvexPolygon, float], ...]
    signed: bool = False

    def __post_init__(self):
        for _, v in self.cells:
            if not math.isfinite(v) or (v < -1e-12 and not self.signed):
                kind = "signed" if self.signed else "unsigned"
                raise ValueError(f"{kind} density has invalid value {v!r}")

    def mass(self) -> float:
        return ordered_sum(v * poly.area for poly, v in self.cells)

    @functools.cached_property
    def batch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells' vertex batch (x, y, n), built on first read."""
        return _batch([poly.vertices for poly, _ in self.cells])


def _region_keys(region: ConvexPolygon):
    return tuple(sorted(snap_key(v) for v in region.vertices))


def _check_same_region(a: ConvexPolygon, b: ConvexPolygon) -> None:
    if _region_keys(a) != _region_keys(b):
        raise RegionMismatch("operands are defined over different regions")


def _split(cell, planes):
    """Split a cell, (vertices, area) as geom2d._kept returns them, by
    a convex clipper given as its edge half-planes: (cell ∩ clipper, the
    convex pieces of cell \\ clipper), as cells.

    geom2d._cut clips the kept side by the planes that cut it.  Then the
    complement is peeled off edge by edge, one piece per cut, from the
    vertex list that cut had: each piece is convex, and the pieces' areas
    sum to the cell's to floating-point accuracy, because each step clips
    against a line and its exact complement.  A plane that does not cut
    would peel off at most a segment on its line, which _kept empties.
    So a cell inside the clipper costs no clip and comes back as (cell,
    ()), and a cell cut by one plane costs two.  The pieces are made only
    once the intersection is known to be nonempty: when it is Empty, the
    result is (None, ()), since no caller has a use for them.
    """
    verts, cuts = _cut(cell[0], planes)
    if not cuts:
        return cell, ()
    inter = _kept(verts)
    if inter is None:
        return None, ()
    clip = geom2d._clip_verts
    pieces = []
    for nx, ny, off, rest in cuts:
        piece = _kept(clip(rest, -nx, -ny, -off))
        if piece is not None:
            pieces.append(piece)
    return inter, pieces


def _refine(
    region: ConvexPolygon,
    tiles: Iterable[tuple[ConvexPolygon, float]],
) -> tuple[tuple[ConvexPolygon, float], ...]:
    """Partition region by a sequence of value-carrying convex tiles.

    The result tiles region mod 0; the value on each output cell is the sum
    of the values of the tiles covering it (uncovered parts keep 0).  Cells
    are returned sorted by snapped centroid for deterministic downstream
    output.

    The cells a tile may meet are found on boxes.  Where the tile is
    octilinear, a cell whose octagon lies inside the tile's, grown by a
    slack far below EPS_AREA, and whose area is well above EPS_AREA is
    settled on the boxes alone: it takes the tile's value, as it would
    after a _split that peels off only slivers.  Every other cell the tile
    may meet is split.
    """
    # The arrangement is kept as cells, (vertices, area) pairs as _kept
    # returns them, and only the output cells become ConvexPolygons.
    cells = [(region.vertices, region.area)]
    values = [0.0]
    # Column i holds _box(cells[i][0]); a cell that the box test of
    # _limits rejects would have come back from _split as (None, ()).
    boxes = np.empty((8, 64))
    boxes[:, 0] = _box(region.vertices)
    tiles = [(tile, tv) for tile, tv in tiles if not tile.is_empty and tv != 0.0]
    tile_boxes = _boxes(*_batch([tile.vertices for tile, _ in tiles]))
    margin, limits = _limits(region, tile_boxes)
    # A cell C is settled on a tile T, without _split, when T is
    # octilinear, its area within EPS_AREA / 4 of its octagon O(T)'s, and
    # _held holds: each bound of C's octagon O(C) is within margin / 8 of
    # T's (row k of grown holds T's bounds less margin / 8), and area(C)
    # is above 2 EPS_AREA plus EPS_GEOM times the perimeter of C's box.
    # Then, up to rounding:
    # - What lies outside T's float half-planes lies in O(T) \ T, of area
    #   at most EPS_AREA / 4, or in one of 8 strips O(C) ∩ {b - margin / 8
    #   <= f < b} along T's bounds b, each at most margin / 8 wide across a
    #   segment no longer than the region box's diagonal, of area EPS_AREA
    #   / 4 together.
    # - So every piece that _split peels off has area below EPS_AREA / 2,
    #   and _kept drops it.
    # - What clipping keeps has area above area(C) - EPS_AREA / 2.
    #   _dedup's merges cut off at most EPS_GEOM times its perimeter, at
    #   most that of C's box, so the rest has area above 1.5 EPS_AREA: no
    #   clip comes back empty, and _kept keeps the intersection.
    # So _split would return (cell ∩ T, ()), on which the cell keeps its
    # vertices and takes T's value.  A cell T contains has area at most
    # area(T) + EPS_AREA / 2, so only cells no larger than room are tested
    # on boxes; room is -inf where T is not octilinear.
    tile_areas = np.array([tile.area for tile, _ in tiles])
    octilinear = np.abs(_area(_close(tile_boxes)) - tile_areas) <= EPS_AREA / 4.0
    rooms = np.where(octilinear, tile_areas + EPS_AREA / 2.0, -math.inf).tolist()
    grown = (tile_boxes - margin / 8.0).T
    for k, (tile, tv) in enumerate(tiles):
        hits = np.flatnonzero((boxes[:, : len(cells)] < limits[:, k, None]).all(axis=0)).tolist()
        room = rooms[k]
        bounds = planes = None
        for idx in hits:
            cell = cells[idx]
            if cell[1] <= room:
                if bounds is None:
                    bounds = grown[k].tolist()
                if _held(cell, boxes[:, idx].tolist(), bounds):
                    values[idx] += tv
                    continue
            if planes is None:
                planes = tile.edge_halfplanes()
            inter, outside = _split(cell, planes)
            if inter is None:
                continue
            values[idx] += tv
            if not outside:
                continue
            cells[idx] = inter
            boxes[:, idx] = _box(inter[0])
            value = values[idx] - tv  # fl(fl(v + tv) - tv), not v: pinned
            for piece in outside:
                if len(cells) == boxes.shape[1]:
                    boxes = np.concatenate([boxes, np.empty_like(boxes)], axis=1)
                boxes[:, len(cells)] = _box(piece[0])
                cells.append(piece)
                values.append(value)
            if len(cells) > MAX_CELLS:
                raise CellExplosion(
                    f"overlay arrangement exceeded {MAX_CELLS} cells"
                )
    cx, cy = _centroids(*_batch([verts for verts, _ in cells]), np.array([a for _, a in cells]))
    order = np.lexsort((np.rint(cy / SNAP), np.rint(cx / SNAP))).tolist()  # snap_key, stably
    return tuple((ConvexPolygon._clean(*cells[i]), values[i]) for i in order)


def _held(cell, box, bounds) -> bool:
    """Whether _refine settles a cell, with its _box, on a tile: each entry
    of the box is at least the matching entry of bounds, the tile's _box
    less the slack, and the cell's area is above 2 EPS_AREA plus EPS_GEOM
    times the perimeter of its box."""
    return all(map(operator.ge, box, bounds)) and (
        cell[1] > 2.0 * EPS_AREA - 2.0 * EPS_GEOM * (box[0] + box[1] + box[4] + box[5])
    )


def _limits(region: ConvexPolygon, tile_boxes: np.ndarray) -> tuple[float, np.ndarray]:
    """(margin, limits) of the box test for the cells of a partition of
    region that tiles with these _box columns may meet: a cell's column c
    passes for tile k where c < limits[:, k] in every entry, that is, where
    its boxes overlap the tile's, shrunk by margin, strictly.

    margin is EPS_AREA / (4 times the diagonal of region's box).  Where an
    x, y, x + y or x - y range of a cell overlaps the tile's by less,
    cell ∩ tile lies in a strip that narrow across the region's box, of
    area below EPS_AREA / 4, which _kept empties.  A nonempty cell ∩ tile
    has area at least EPS_AREA, so each of its ranges is at least 4
    margins wide and the test keeps it.
    """
    region_box = _box(region.vertices)
    width = -region_box[4] - region_box[0]
    height = -region_box[5] - region_box[1]
    margin = EPS_AREA / (4.0 * math.hypot(width, height))
    return margin, -np.concatenate((tile_boxes[4:], tile_boxes[:4])) - margin


def push_forward(m: PiecewiseMap, f: PiecewisePolyDensity) -> PiecewisePolyDensity:
    """Exact pushforward of f under m.

    Each branch maps each cell piece affinely and scales its value by the
    inverse Jacobian; the resulting image tiles are overlaid into a common
    partition of the region with contributions summed where images overlap.
    The cells that may meet a branch domain are found by _refine's box
    test (_limits), and each is intersected with the domain: intersect
    clips only by the domain edges that cut it, and returns a cell inside
    the domain as it is.
    """
    _check_same_region(f.region, m.region)
    live = np.flatnonzero(np.array([v != 0.0 for _, v in f.cells], bool) & (f.batch[2] > 0))
    boxes = _boxes(*(a[live] for a in f.batch))
    _, limits = _limits(f.region, np.array([_box(br.domain.vertices) for br in m.branches]).T)
    tiles = []
    for k, branch in enumerate(m.branches):
        det = branch.map.linear.det()
        if abs(det) <= EPS_GEOM:
            raise SingularMatrix(f"affine map with |det| = {abs(det)!r} is not a bijection")
        inv_jac = 1.0 / branch.jacobian_abs
        hits = np.flatnonzero((boxes < limits[:, k, None]).all(axis=0))
        for idx in live[hits].tolist():
            poly, v = f.cells[idx]
            piece = intersect(poly, branch.domain)
            if piece.is_empty:
                continue
            kept = _mapped(branch.map, piece.vertices)  # affine_image on vertex tuples
            if kept is not None:
                tiles.append((ConvexPolygon._clean(*kept), v * inv_jac))
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
    """(sum |v|^p * area)^(1/p) for finite p >= 1; p = 1 is the L1 norm."""
    if not 1.0 <= p < math.inf:
        raise ParameterOutOfRange(f"lp_norm needs finite p >= 1, got {p!r}")
    if p == 1.0:
        return ordered_sum(abs(v) * poly.area for poly, v in f.cells)
    total = ordered_sum(abs(v) ** p * poly.area for poly, v in f.cells)
    return total ** (1.0 / p)


def l1_distance(f: PiecewisePolyDensity, g: PiecewisePolyDensity) -> float:
    """L1 distance on the overlay of the two partitions."""
    return lp_norm(add_scaled(f, 1.0, g, -1.0))


def variation(f: PiecewisePolyDensity) -> float:
    """Total variation: sum over arrangement edges of |jump| * length.

    Edges are grouped by the line supporting them (direction canonicalized,
    snapped at 1e-9); along each line a sweep over edge-interval endpoints
    accumulates |left value - right value| times subinterval length, so
    partially matched edges are split exactly at projected endpoints.  The
    function is extended by zero outside the region, so region-boundary
    edges contribute their full jump.

    Edges come from the vertex batch, with math.hypot per edge; lines go in
    the order of their first edge, each line's events (s, dleft, dright) in
    a stable sort, and the running sums and the total are sequential
    cumsums: the sums, and so the bits, of a loop over the edges.
    """
    x, y, n = f.batch
    edge = np.arange(x.shape[1] - 1) < n[:, None]
    if not edge.any():
        return 0.0
    ax, ay, bx, by = x[:, :-1][edge], y[:, :-1][edge], x[:, 1:][edge], y[:, 1:][edge]
    dx, dy = bx - ax, by - ay
    length = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(dx))
    ux, uy = dx / length, dy / length
    flip = (ux < -1e-12) | ((np.abs(ux) <= 1e-12) & (uy < 0.0))
    ux, uy = np.where(flip, -ux, ux), np.where(flip, -uy, uy)
    keys = np.rint(np.stack((-uy, ux, -uy * ax + ux * ay)) / SNAP).astype(np.int64)
    by_key = np.lexsort(keys[::-1])
    new = np.concatenate(([True], (np.diff(keys[:, by_key], axis=1) != 0).any(axis=0)))
    line = np.empty(len(by_key), np.intp)  # lines numbered in the order of their first edge
    line[by_key] = np.argsort(np.argsort(by_key[new]))[np.cumsum(new) - 1]
    s0, s1 = ux * ax + uy * ay, ux * bx + uy * by
    s = np.stack((np.where(s0 > s1, s1, s0), np.where(s0 > s1, s0, s1)), axis=1).ravel()
    del ax, ay, bx, by, dx, dy, length, ux, uy, keys, by_key, new, s0, s1  # peak: events only
    jumps = np.repeat([v for _, v in f.cells], n)[:, None] * [1.0, -1.0]  # s0 adds v, s1 takes it off
    jumps = np.stack([np.where(flip[:, None] == right, jumps, 0.0).ravel() for right in (False, True)])
    order = np.lexsort((jumps[1], jumps[0], s, np.repeat(line, 2)))  # (line, s, dleft, dright)
    line, s, jumps = np.repeat(line, 2)[order], s[order], jumps[:, order]
    count = np.bincount(line)
    pos = np.arange(len(line)) - np.repeat(np.cumsum(count) - count, count)
    band = np.frexp(count)[1]  # lines of 2**(b-1) <= count < 2**b events share a block of rows
    run = np.empty_like(jumps)  # the running sums (left, right) before each event
    for b in np.unique(band).tolist():
        at = np.flatnonzero(band[line] == b)
        row, col = (np.cumsum(band == b) - 1)[line[at]], pos[at]
        sums = np.zeros((2, row[-1] + 1, 2**b + 1))
        sums[:, row, col + 1] = jumps[:, at]
        run[:, at] = np.cumsum(sums, axis=2)[:, row, col]
    prev = np.concatenate(([0.0], s[:-1]))
    terms = np.where((pos > 0) & (s > prev), np.abs(run[0] - run[1]) * (s - prev), 0.0)
    return float(np.cumsum(terms)[-1])


# ---------------------------------------------------------------------------
# Ulam discretization on octagons (geom2d's octagon kernel)
# ---------------------------------------------------------------------------

NOISE_SHARE = 64 * np.finfo(float).eps  # overlaps below this share of a square are noise


def _check_resolution(name: str, value) -> None:
    if not (isinstance(value, numbers.Integral) and value >= 2):
        raise ParameterOutOfRange(f"{name} must be an integer >= 2, got {value!r}")


@dataclass(frozen=True)
class UlamGrid:
    """Axis-aligned squares of side 1/resolution met with the region.

    ``bounds`` holds the closed octagons of the cells, the squares that
    meet the region in area EPS_AREA or more, in row-major order, as the
    columns of an (8, cells) array, with their areas in ``cell_areas``.
    ``lookup`` maps squares, numbered row-major from the square at lattice
    index ``origin``, to cells (as a 2D array), -1 where the square misses
    the region.  ``polys`` (the vertex batch) and ``cells`` (the same
    cells as ConvexPolygons) are built on first read.
    """

    region: ConvexPolygon
    resolution: int
    bounds: np.ndarray = field(compare=False, repr=False)
    cell_areas: np.ndarray = field(compare=False, repr=False)
    lookup: np.ndarray = field(compare=False, repr=False)
    origin: tuple[int, int] = field(compare=False, repr=False)

    @staticmethod
    def build(region: ConvexPolygon, resolution: int) -> "UlamGrid":
        """The grid over region, measuring the squares of _spans' row spans."""
        _check_resolution("resolution", resolution)
        region_box = _octagons([region], "region")
        n = resolution
        # the region's bounding box, negated maxima made positive
        xmin, ymin, xmax, ymax = (region_box[[0, 1, 4, 5], 0] * [1.0, 1.0, -1.0, -1.0]).tolist()
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
        hits, columns = [np.zeros(0, np.intp)], [np.zeros((8, 0))]
        for _, square in _spans(region_box, n, (ix0, iy0), (ny, nx)):  # row-major
            iy, ix = np.divmod(square, nx)
            left, right = (ix + ix0) / n, (ix + ix0 + 1) / n
            bottom, top = (iy + iy0) / n, (iy + iy0 + 1) / n
            squares = np.array([left, bottom, left + bottom, left - top,
                                -right, -top, -(right + top), -(right - bottom)])
            bounds = _close(np.maximum(squares, region_box, out=squares))
            hit = np.flatnonzero(_area(bounds) >= EPS_AREA)
            hits.append(square[hit])
            columns.append(bounds[:, hit])
        hit, bounds = np.concatenate(hits), np.concatenate(columns, axis=1)
        lookup = np.full(nx * ny, -1, dtype=np.intp)
        lookup[hit] = np.arange(len(hit))
        return UlamGrid(
            region, resolution, bounds, _area(bounds), lookup.reshape(ny, nx), (ix0, iy0)
        )

    @functools.cached_property
    def polys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # _vertices OVERLAY_CHUNK cells at a time, padded to one batch's width
        parts = [_vertices(self.bounds[:, lo : lo + OVERLAY_CHUNK])
                 for lo in range(0, len(self.cell_areas), OVERLAY_CHUNK)]
        n = np.concatenate([np.zeros(0, np.intp), *(part[2] for part in parts)])
        x, y = np.zeros((2, len(n), n.max(initial=0) + 1))
        for lo, (px, py, pn) in zip(range(0, len(n), OVERLAY_CHUNK), parts):
            x[lo : lo + len(pn), : px.shape[1]], y[lo : lo + len(pn), : py.shape[1]] = px, py
        return x, y, n

    @functools.cached_property
    def cells(self) -> tuple[ConvexPolygon, ...]:
        """The cells as ConvexPolygons, built on first read."""
        return _polygons(*self.polys, self.cell_areas)

    @functools.cached_property
    def _fan_moments(self) -> dict[tuple[int, int], np.ndarray]:
        """Per cell, the integral of x^ax * y^ay over the cell for each
        (ax, ay) of total degree <= 2: geom2d.monomial_integral's fan
        triangles (0, i, i + 1) and closed forms, summed in the same order."""
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
        return {k: _sequential_sum(np.where(fan, v, 0.0)) for k, v in terms.items()}

    def moments(self, values: np.ndarray) -> dict[tuple[int, int], float]:
        """Integral of x^ax * y^ay against the grid density with these cell
        values, keyed by (ax, ay), for each (ax, ay) of total degree <= 2.

        The per-cell integrals are taken once per grid; cells are then
        summed left to right, as Python 3.10/3.11 ``sum`` does.
        """
        return {k: float(np.cumsum(values * per_cell)[-1]) for k, per_cell in self._fan_moments.items()}


def _runs(sizes: np.ndarray):
    """(item, offset) for each place of a run of sizes[item] places per
    item, OVERLAY_CHUNK places at a time, in order."""
    ends = np.cumsum(sizes)
    for start in range(0, int(ends[-1]) if len(ends) else 0, OVERLAY_CHUNK):
        pos = np.arange(start, min(start + OVERLAY_CHUNK, int(ends[-1])))
        item = np.searchsorted(ends, pos, side="right")
        yield item, pos - (ends[item] - sizes[item])


def _spans(b: np.ndarray, resolution: int, origin: tuple[int, int], shape: tuple[int, int]):
    """(k, square) pairs, OVERLAY_CHUNK at a time, by k then row-major: the
    squares (side 1 / resolution, numbered row-major from lattice index
    origin over shape (rows, columns)) that the closed octagon b[:, k] may
    meet.  On the strip y0 <= y <= y1 of each row its y range crosses, they
    run under its x extent, max(xl, ul - y1, vl + y0) to min(xh, uh - y0, vh
    + y1), floored -/+ SNAP: _close raises the bounds of the octagon met
    with a square left out to these sums, and so to area 0.  Rows go
    OVERLAY_CHUNK at a time."""
    n, (ix0, iy0), (ny, nx) = resolution, origin, shape
    lo_y = np.maximum(np.floor(b[1] * n - SNAP).astype(np.intp) - iy0, 0)
    hi_y = np.minimum(np.floor(-b[5] * n + SNAP).astype(np.intp) - iy0, ny - 1)
    for k, dy in _runs(np.maximum(hi_y - lo_y + 1, 0)):
        iy = lo_y[k] + dy
        y0, y1 = (iy + iy0) / n, (iy + iy0 + 1) / n
        xl, _, ul, vl, nxh, _, nuh, nvh = b[:, k]
        left = np.maximum(np.maximum(xl, ul - y1), vl + y0)
        right = np.minimum(np.minimum(-nxh, -nuh - y0), y1 - nvh)
        lo_x = np.maximum(np.floor(left * n - SNAP).astype(np.intp) - ix0, 0)
        hi_x = np.minimum(np.floor(right * n + SNAP).astype(np.intp) - ix0, nx - 1)
        for r, dx in _runs(np.maximum(hi_x - lo_x + 1, 0)):
            yield k[r], iy[r] * nx + lo_x[r] + dx


def _overlay(grid: UlamGrid, b: np.ndarray):
    """(k, j, area of column k ∩ cell j) for every pair whose area exceeds
    NOISE_SHARE of a grid square's, below which bounds that cross by an ulp
    make noise, for the closed octagons of b, ordered by k and then by j:
    one batch for each batch of _spans, whose in-region squares are all
    measured (a square an octagon only touches or misses measures 0)."""
    for k, square in _spans(b, grid.resolution, grid.origin, grid.lookup.shape):
        j = grid.lookup.ravel()[square]
        k, j = k[j >= 0], j[j >= 0]
        w = _area(_close(np.maximum(b[:, k], grid.bounds[:, j])))
        hit = w > NOISE_SHARE / (grid.resolution * grid.resolution)
        yield k[hit], j[hit], w[hit]


def _joined(batches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (k, j, area) batches of _overlay as one triple of arrays."""
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0)), *batches]
    return tuple(np.concatenate(a) for a in zip(*parts))


@dataclass(frozen=True, eq=False)
class UlamOperator:
    """Row-stochastic transition matrix between grid cells as canonical CSR
    arrays, columns ascending within each row; ``matrix``, the scipy CSR
    matrix over them, is made on first read and loads scipy.sparse."""

    grid: UlamGrid
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        n = len(self.indptr) - 1
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(n, n))


@dataclass(frozen=True)
class DensityVector:
    """Cell-aligned density values, tagged with iteration diagnostics."""

    values: np.ndarray
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True


def build_ulam(m: PiecewiseMap, grid: UlamGrid | int) -> UlamOperator:
    """Ulam matrix: entry (i, j) = m(cell_i ∩ map^-1(cell_j)) / m(cell_i).

    grid is a grid over m.region, or the resolution of the grid to build
    once the branches have passed the octagon checks.  Preimage measures
    are computed on the image side, on octagons:
    area(branch_image(cell_i ∩ R_b) ∩ cell_j) / |J_b| for each branch b.
    Every overlap above rounding noise is kept, so as the map sends the
    region into itself, a row sums to the share of its cell that the
    branch domains cover, to rounding.  The (cell, branch) pairs, which
    _overlay finds, go OVERLAY_CHUNK at a time in row-major order, and
    the squares under their images' row spans OVERLAY_CHUNK at a time.
    NotOctilinear, before the grid is built, where a branch domain or
    linear part leaves the directions x, y, x + y and x - y.

    Each (row, column)'s entries, one per branch image that meets the
    column's cell, are summed once, left to right as the overlays store
    them: a stable sort of the row-major keys, then np.bincount.  No scipy.
    """
    domains = _octagons([br.domain for br in m.branches], "branch domain")
    perm, scale, shift = _image_plan([br.map for br in m.branches])
    jac = np.array([br.jacobian_abs for br in m.branches])
    if not isinstance(grid, UlamGrid):
        grid = UlamGrid.build(m.region, grid)
    n = len(grid.cell_areas)
    branch, cell, _ = _joined(_overlay(grid, domains))
    order = np.lexsort((branch, cell))
    branch, cell = branch[order], cell[order]
    keys, data = [np.zeros(0, np.intp)], [np.zeros(0)]  # row-major (row, column) keys
    for lo in range(0, len(cell), OVERLAY_CHUNK):
        i, b = cell[lo : lo + OVERLAY_CHUNK], branch[lo : lo + OVERLAY_CHUNK]
        piece = _close(np.maximum(grid.bounds[:, i], domains[:, b]))
        image = scale[:, b] * piece[perm[:, b], np.arange(len(b))] + shift[:, b]
        lost = _area(image)
        for src, j, w in _overlay(grid, image):
            lost -= np.bincount(src, weights=w, minlength=len(i))
            keys.append(i[src] * n + j)
            data.append(w / (jac[b[src]] * grid.cell_areas[i[src]]))
        bad = np.flatnonzero(lost > 1e-9)
        if bad.size:
            raise ResolutionTooLow(
                f"cell {i[bad[0]]} maps outside the gridded region "
                f"(lost image area {float(lost[bad[0]]):g})"
            )
    keys, data = np.concatenate(keys), np.concatenate(data)
    order = np.argsort(keys, kind="stable")
    keys, data = keys[order], data[order]
    new = np.concatenate(([True], keys[1:] != keys[:-1]))
    data = np.bincount(np.cumsum(new) - 1, weights=data)
    keys = keys[new]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    return UlamOperator(grid, indptr, (keys % n).astype(np.int32), data)


def stationary_masses(
    transition: sp.spmatrix | np.ndarray,
    masses0: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> tuple[np.ndarray, int, float, bool]:
    """Fixed probability vector of a row-stochastic matrix by power iteration.

    Iterates the adjoint action p -> p @ T from masses0, renormalizing the
    total mass each step; if the L1 residual plateaus, switches to running
    Cesaro averages of the iterates.  Shared by the 1D and 2D pipelines.
    A scipy sparse matrix exists only once scipy.sparse is loaded, so
    without it the dense branch is taken and the module stays unloaded.
    """
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(transition):
        adjoint = transition.T.tocsr()
    else:
        # A view of a column-major float matrix; a copy of any other.
        adjoint = np.ascontiguousarray(np.asarray(transition, dtype=float).T)

    def step(v):  # v @ T with its total mass renormalized to 1
        w = adjoint @ v
        return w / w.sum()

    p = np.asarray(masses0, dtype=float)
    p = p / p.sum()
    residual = math.inf
    history: list[float] = []
    for k in range(1, max_iter + 1):
        q = step(p)
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
        p = step(p)
        avg = avg + (p - avg) / (count + 1)
        count += 1
        if count % 20 == 0:
            residual = float(np.abs(step(avg) - avg).sum())
            if residual < tol:
                return avg / avg.sum(), k, residual, True
    residual = float(np.abs(step(avg) - avg).sum())
    return avg / avg.sum(), max_iter, residual, False


def ulam_fixed(op: UlamOperator, tol: float = 1e-8, max_iter: int = 20000) -> DensityVector:
    """Fixed density of the discretized operator from the uniform start."""
    areas = op.grid.cell_areas
    p, iters, residual, converged = stationary_masses(op.matrix, areas, tol, max_iter)
    values = p / areas
    return DensityVector(values, iters, residual, converged)


def density_from_vector(grid: UlamGrid, vec: DensityVector) -> PiecewisePolyDensity:
    cells = tuple((poly, float(v)) for poly, v in zip(grid.cells, vec.values))
    return PiecewisePolyDensity(grid.region, cells)


def _grid_values(grid: UlamGrid, f: PiecewisePolyDensity) -> np.ndarray:
    """Cell averages of f on the grid: the cell values of project_to_grid."""
    tiles = [(poly, v) for poly, v in f.cells if v != 0.0 and not poly.is_empty]
    src, j, w = _joined(_overlay(grid, _octagons([poly for poly, _ in tiles], "density cell")))
    values = np.array([v for _, v in tiles], dtype=float)
    acc = np.bincount(j, weights=values[src] * w, minlength=len(grid.cell_areas))
    return acc / grid.cell_areas


def project_to_grid(f: PiecewisePolyDensity, resolution: int) -> PiecewisePolyDensity:
    """Cell-averaged projection onto the square grid (an L1 contraction
    that preserves mass exactly)."""
    grid = UlamGrid.build(f.region, resolution)
    cells = tuple(zip(grid.cells, _grid_values(grid, f).tolist()))
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
    """Running Cesaro average A_n of the transfer-operator iterates of f0.

    Stops at the first n with ||P A_n - A_n||_1 < tol, or at n_max >= 1
    with converged=False.  With ``coarsen`` None, P is the exact
    pushforward and the averages live on its growing overlay arrangement.
    With ``coarsen`` an integer grid resolution (>= 2), P is the Ulam
    operator of m on that grid, built once: f0 is projected onto the grid,
    and the iterates are cell-value vectors v -> (M^T (v * areas)) / areas,
    so the result is the Cesaro average of the Ulam chain started from the
    projected f0.  That is projecting every exact pushforward back onto
    the grid, up to rounding and the mass that clipping drops from exact
    pushforwards (ROADMAP item 7).

    The coarsened chain reads build_ulam's arrays and applies M^T with
    np.bincount, so it leaves scipy.sparse unloaded.  Its sums are those
    of csr_matvec on build_ulam(m, coarsen).matrix.T.tocsr(), so the
    result has their bits.
    """
    if coarsen is not None:
        _check_resolution("coarsen", coarsen)
    if n_max < 1:
        raise ParameterOutOfRange(f"n_max must be >= 1, got {n_max!r}")
    if abs(f0.mass() - 1.0) > 1e-9:
        raise ParameterOutOfRange("cesaro_fixed_density expects ||f0||_1 = 1")
    _check_same_region(f0.region, m.region)
    if coarsen is None:
        cur = f0
        push, distance, mix = functools.partial(push_forward, m), l1_distance, add_scaled
    else:
        op = build_ulam(m, coarsen)
        grid, areas, cols, data = op.grid, op.grid.cell_areas, op.indices, op.data
        rows = np.repeat(np.arange(len(areas)), np.diff(op.indptr))
        cur = _grid_values(grid, f0)

        def push(v):
            # M^T (v * areas): each column's terms added in ascending row
            # order from 0.0, as csr_matvec adds them on M.T.tocsr()
            return np.bincount(cols, weights=data * (v * areas)[rows], minlength=len(areas)) / areas

        def distance(a, b):
            return float(np.sum(np.abs(a - b) * areas))

        def mix(a, alpha, b, beta):
            return alpha * a + beta * b

    avg = cur
    n = 0
    while True:
        n += 1
        residual = distance(push(avg), avg)
        if residual < tol or n >= n_max:
            break
        cur = push(cur)
        avg = mix(avg, n / (n + 1.0), cur, 1.0 / (n + 1.0))
    if coarsen is not None:
        avg = PiecewisePolyDensity(f0.region, tuple(zip(grid.cells, avg.tolist())), f0.signed)
    total = avg.mass()
    cells = tuple((poly, v / total) for poly, v in avg.cells)
    out = PiecewisePolyDensity(avg.region, cells, avg.signed)
    return CesaroResult(out, n, residual, residual < tol)


# ---------------------------------------------------------------------------
# CSV export (17-significant-digit, deterministic)
# ---------------------------------------------------------------------------


def _spelled(a: np.ndarray) -> np.ndarray:
    """'%.17g' % v for every entry v of the float array a, as an object
    array of its shape.  Each distinct float is formatted once, keyed by
    its bit pattern, so that -0.0 keeps its own spelling."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    keys, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    words = np.array(["%.17g" % v for v in keys.view(np.float64).tolist()], dtype=object)
    # the inverse's shape differs between numpy releases
    return words[inverse.reshape(a.shape)]


def density_csv(grid: UlamGrid, values: np.ndarray) -> str:
    """Cell table of the grid density with these cell values: id, area,
    centroid, value, vertex count and coordinates.

    Rows are written OVERLAY_CHUNK at a time, from the _spelled floats of
    the chunk ('%.17g' % x spells a float as ioutil.fmt(x) does), with
    empty fields after the last vertex."""
    x, y, n = grid.polys
    max_verts = int(n.max(initial=0))
    header = ["cell_id", "area", "centroid_x", "centroid_y", "value", "n_vertices"]
    header += [f"v{k}{axis}" for k in range(max_verts) for axis in "xy"]
    counts = np.array([str(k) for k in range(max_verts + 1)], dtype=object)
    cx, cy = _centroids(*grid.polys, grid.cell_areas)

    def chunks():  # its temporaries are gone before the final join
        for lo in range(0, len(n), OVERLAY_CHUNK):
            rows = slice(lo, lo + OVERLAY_CHUNK)
            count = n[rows]
            xy = np.stack((x[rows, :max_verts], y[rows, :max_verts]), axis=-1)
            floats = (grid.cell_areas[rows], cx[rows], cy[rows], values[rows])
            words = _spelled(np.column_stack((*floats, xy.reshape(len(count), -1))))
            words[:, 4:][np.arange(2 * max_verts) >= 2 * count[:, None]] = ""
            ids = np.array([str(i) for i in range(lo, lo + len(count))], dtype=object)
            table = np.column_stack((ids, words[:, :4], counts[count], words[:, 4:]))
            yield "\n".join(map(",".join, table.tolist()))

    return "\n".join([",".join(header), *chunks(), ""])


def ulam_matrix_csv(matrix) -> str:
    """A transition matrix as i,j,weight coordinate triples of its stored
    entries in row-major order: a dense matrix's nonzeros, or a scipy
    sparse matrix's CSR entries row by row (UlamOperator.matrix is one)."""
    if hasattr(matrix, "tocsr"):  # scipy sparse; a CSR matrix returns itself
        matrix = matrix.tocsr()
        col, data = matrix.indices, matrix.data
        row = np.repeat(np.arange(len(matrix.indptr) - 1), np.diff(matrix.indptr))
    else:
        dense = np.asarray(matrix)
        row, col = np.nonzero(dense)
        data = dense[row, col]
    # Entries are formatted and joined OVERLAY_CHUNK at a time, as
    # density_csv writes cells, so that no per-entry list of Python values
    # or strings spans the whole matrix.
    parts = ["i,j,weight\n"]
    for lo in range(0, len(data), OVERLAY_CHUNK):
        chunk = slice(lo, lo + OVERLAY_CHUNK)
        entries = zip(row[chunk].tolist(), col[chunk].tolist(), _spelled(data[chunk]).tolist())
        parts.append("".join(map("%d,%d,%s\n".__mod__, entries)))
    return "".join(parts)
