"""Piecewise-constant polygonal densities and the pushforward operator.

A density is a list of (convex cell, value) pairs tiling a region mod 0.
The pushforward of such a density under a piecewise-affine map is again
piecewise constant, and is computed exactly: branch images are overlaid
into a common convex partition by iterated refinement, with contributions
summed per overlay cell.  Variation, L^p norms, L1 distances, Cesaro
averaging, and the Ulam discretization are built on the same machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp

from . import geom2d
from .errors import (
    CellExplosion,
    ParameterOutOfRange,
    RegionMismatch,
    ResolutionTooLow,
    ZeroVariation,
)
from .geom2d import (
    EPS_AREA,
    SNAP,
    ConvexPolygon,
    affine_image,
    intersect,
    snap_key,
)
from .maps import PiecewiseMap

MAX_CELLS = 10**6  # hard budget for exact-pushforward arrangements


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
# Ulam discretization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UlamGrid:
    """Axis-aligned squares of side 1/resolution clipped to the region."""

    region: ConvexPolygon
    resolution: int
    cells: tuple[ConvexPolygon, ...]
    index: dict = field(compare=False, repr=False, default_factory=dict)

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
        cells = []
        index = {}
        for iy in range(iy0, iy1):
            for ix in range(ix0, ix1):
                square = geom2d.box(ix / n, iy / n, (ix + 1) / n, (iy + 1) / n)
                cell = intersect(square, region)
                if not cell.is_empty:
                    index[(ix, iy)] = len(cells)
                    cells.append(cell)
        return UlamGrid(region, resolution, tuple(cells), index)

    def areas(self) -> np.ndarray:
        return np.array([c.area for c in self.cells])

    def overlaps(self, poly: ConvexPolygon) -> Iterator[tuple[int, float]]:
        """(j, area of poly ∩ cell j) for each cell that poly meets with
        positive area, in row-major order of the grid squares."""
        n = self.resolution
        bbox = poly.bbox()
        ix_lo = math.floor(bbox[0] * n - SNAP)
        ix_hi = math.floor(bbox[2] * n + SNAP)
        iy_lo = math.floor(bbox[1] * n - SNAP)
        iy_hi = math.floor(bbox[3] * n + SNAP)
        for iy in range(iy_lo, iy_hi + 1):
            for ix in range(ix_lo, ix_hi + 1):
                j = self.index.get((ix, iy))
                if j is not None:
                    w = intersect(poly, self.cells[j]).area
                    if w > 0.0:
                        yield j, w


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
    Rows sum to 1 because the map sends the region into itself.
    """
    grid = UlamGrid.build(m.region, resolution)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, cell in enumerate(grid.cells):
        ai = cell.area
        for branch in m.branches:
            piece = intersect(cell, branch.domain)
            if piece.is_empty:
                continue
            image = affine_image(branch.map, piece)
            if image.is_empty:
                continue
            captured = 0.0
            for j, w in grid.overlaps(image):
                rows.append(i)
                cols.append(j)
                data.append(w / (branch.jacobian_abs * ai))
                captured += w
            if image.area - captured > 1e-9:
                raise ResolutionTooLow(
                    f"cell {i} maps outside the gridded region "
                    f"(lost image area {image.area - captured:g})"
                )
    n = len(grid.cells)
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
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
    acc = np.zeros(len(grid.cells))
    for poly, v in f.cells:
        if v == 0.0:
            continue
        for j, w in grid.overlaps(poly):
            acc[j] += v * w
    areas = grid.areas()
    cells = tuple(
        (poly, float(val / area))
        for poly, val, area in zip(grid.cells, acc, areas)
    )
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


def ulam_matrix_csv(op: UlamOperator) -> str:
    """Sparse matrix as i,j,weight coordinate triples."""
    from .ioutil import fmt

    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = ["i,j,weight"]
    for k in order:
        lines.append(f"{coo.row[k]},{coo.col[k]},{fmt(coo.data[k])}")
    return "\n".join(lines) + "\n"
