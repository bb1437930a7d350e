"""Per-cell grid overlay and output writers: the generic references that
the octagon Ulam kernel and the batch-reading density outputs are held to.

The overlay functions walk the grid one square or one polygon at a time
through ``geom2d.intersect``, for any convex region and affine branches,
as ``density`` did before its Ulam layer moved to octagons.  Tests
compare the package's matrices with them within stated bounds (bit for
bit at t = 1 and the dyadic resolutions), except on the rows where this
clipping drops slivers, which the octagon kernel keeps.  The writers
format one ConvexPolygon at a time, as the ``density`` command did before
it read the grid's vertex batch, and the package matches them bit for
bit; ``ramp_color`` is the heatmap's colour ramp one fraction at a time.  Nothing in the package imports this module.  ``cesaro_coarsened``
is the coarsened Cesaro loop on exact arrangements, which the package's
Ulam-matrix loop matches to rounding and the mass that clipping drops
from exact pushforwards; ``cesaro_on_csr`` is that Ulam-matrix loop on
scipy's CSR adjoint, as the package ran it before it read the matrix
entries as arrays.  ``tent1d_dense`` is the interval oracle's overlap
formula evaluated on every (source, target) pair at once, n^2 arrays.
"""

import math

import numpy as np
import scipy.sparse as sp

from geometry_oracle import bbox, box, centroid
from tentstab import cli, geom2d
from tentstab.density import (
    CesaroResult,
    PiecewisePolyDensity,
    _grid_values,
    add_scaled,
    build_ulam as octagon_ulam,
    l1_distance,
    push_forward,
    stationary_masses,
)
from tentstab.errors import ResolutionTooLow
from tentstab.geom2d import SNAP, affine_image, intersect
from tentstab.experiments import TEST_FUNCTIONS
from tentstab.ioutil import fmt


class Grid:
    """The clipped squares of side 1/resolution, square by square."""

    def __init__(self, region, resolution):
        n = resolution
        xmin, ymin, xmax, ymax = bbox(region)
        ix0 = math.floor(xmin * n + SNAP)
        ix1 = math.ceil(xmax * n - SNAP)
        iy0 = math.floor(ymin * n + SNAP)
        iy1 = math.ceil(ymax * n - SNAP)
        self.resolution = n
        self.cells = []
        self.index = {}
        for iy in range(iy0, iy1):
            for ix in range(ix0, ix1):
                square = box(ix / n, iy / n, (ix + 1) / n, (iy + 1) / n)
                cell = intersect(square, region)
                if not cell.is_empty:
                    self.index[(ix, iy)] = len(self.cells)
                    self.cells.append(cell)

    def overlaps(self, poly):
        """(j, area of poly ∩ cell j) for each cell that poly meets with
        positive area, in row-major order of the grid squares."""
        n = self.resolution
        xmin, ymin, xmax, ymax = bbox(poly)
        ix_lo = math.floor(xmin * n - SNAP)
        ix_hi = math.floor(xmax * n + SNAP)
        iy_lo = math.floor(ymin * n - SNAP)
        iy_hi = math.floor(ymax * n + SNAP)
        for iy in range(iy_lo, iy_hi + 1):
            for ix in range(ix_lo, ix_hi + 1):
                j = self.index.get((ix, iy))
                if j is not None:
                    w = intersect(poly, self.cells[j]).area
                    if w > 0.0:
                        yield j, w


def build_ulam(m, resolution):
    """(grid, CSR Ulam matrix) by the cell x branch x candidate loop."""
    grid = Grid(m.region, resolution)
    rows, cols, data = [], [], []
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
    return grid, matrix


def dropped_mass(m, grid, i):
    """How far clipping takes row i below 1: the part of cell i that falls
    in no branch piece, and the part of each branch image that falls in no
    captured overlap, each over |J| area_i.  Both are slivers that
    intersect empties (vertices merged within EPS_GEOM, areas below
    EPS_AREA) or shaves off by merging vertices."""
    cell = grid.cells[i]
    total = cell.area
    for branch in m.branches:
        piece = intersect(cell, branch.domain)
        total -= piece.area
        if piece.is_empty:
            continue
        image = affine_image(branch.map, piece)
        if image.is_empty:
            continue
        captured = sum(w for _, w in grid.overlaps(image))
        total += (image.area - captured) / branch.jacobian_abs
    return total / cell.area


def project_to_grid(f, resolution):
    grid = Grid(f.region, resolution)
    acc = np.zeros(len(grid.cells))
    for poly, v in f.cells:
        if v == 0.0:
            continue
        for j, w in grid.overlaps(poly):
            acc[j] += v * w
    areas = np.array([c.area for c in grid.cells])
    cells = tuple(
        (poly, float(val / area))
        for poly, val, area in zip(grid.cells, acc, areas)
    )
    return PiecewisePolyDensity(f.region, cells, f.signed)


def density_moments(grid_cells, values):
    """Monomial integrals by geom2d.monomial_integral, summed left to right
    as Python 3.10/3.11 ``sum`` does (3.12 compensates the sum)."""
    out = {}
    for name, (ax, ay) in TEST_FUNCTIONS.items():
        total = 0.0
        for cell, v in zip(grid_cells, values):
            total += float(v) * geom2d.monomial_integral(cell, ax, ay)
        out[name] = total
    return out


def density_csv(f):
    """The density cell table of a PiecewisePolyDensity, polygon by polygon."""
    max_verts = max((len(poly.vertices) for poly, _ in f.cells), default=0)
    header = ["cell_id", "area", "centroid_x", "centroid_y", "value", "n_vertices"]
    for k in range(max_verts):
        header += [f"v{k}x", f"v{k}y"]
    lines = [",".join(header)]
    for i, (poly, v) in enumerate(f.cells):
        cx, cy = centroid(poly)
        row = [str(i), fmt(poly.area), fmt(cx), fmt(cy), fmt(v), str(len(poly.vertices))]
        for vx, vy in poly.vertices:
            row += [fmt(vx), fmt(vy)]
        row += [""] * (2 * (max_verts - len(poly.vertices)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def ramp_color(frac: float) -> str:
    """The ramp's colour at a fraction, clamped to [0, 1], as #rrggbb."""
    frac = min(1.0, max(0.0, frac))
    channels = [
        round(255 * (lo + frac * (hi - lo)))
        for lo, hi in zip(cli.RAMP_LO, cli.RAMP_HI)
    ]
    return "#{:02x}{:02x}{:02x}".format(*channels)


def render_svg(cells):
    """The SVG heatmap of (polygon, value) cells, polygon by polygon."""
    values = [v for _, v in cells]
    vmin, vmax = min(values), max(values)
    xs = [v[0] for poly, _ in cells for v in poly.vertices]
    ys = [v[1] for poly, _ in cells for v in poly.vertices]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    width, height = cli.CANVAS_W, cli.CANVAS_H
    span_x = max(xmax - xmin, 1e-12)
    span_y = max(ymax - ymin, 1e-12)
    scale = min(0.90 * width / span_x, 0.90 * height / span_y)
    off_x = 0.5 * (width - scale * span_x)
    off_y = 0.5 * (height - scale * span_y)

    def to_px(p):
        px = off_x + (p[0] - xmin) * scale
        py = height - (off_y + (p[1] - ymin) * scale)
        return f"{px:.3f},{py:.3f}"

    spread = vmax - vmin
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for poly, value in cells:
        frac = 0.5 if spread <= 0.0 else (value - vmin) / spread
        points = " L ".join(to_px(v) for v in poly.vertices)
        parts.append(f'<path d="M {points} Z" fill="{ramp_color(frac)}"/>')
    swatches = 16
    sw = 12.0
    x0 = 12.0
    y0 = height - 24.0
    for k in range(swatches):
        color = ramp_color(k / (swatches - 1))
        parts.append(
            f'<rect x="{x0 + k * sw:.3f}" y="{y0:.3f}" width="{sw:.3f}" '
            f'height="12.000" fill="{color}"/>'
        )
    legend = f"{vmin:#.6g} - {vmax:#.6g}"
    parts.append(
        f'<text x="{x0 + swatches * sw + 8:.3f}" y="{y0 + 10:.3f}" '
        f'font-family="monospace" font-size="13">{legend}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cesaro_coarsened(m, f0, n_max, tol, coarsen):
    """cesaro_fixed_density with ``coarsen`` on the exact arrangement:
    every exact pushforward is projected back onto the grid."""
    cur = project_to_grid(f0, coarsen)
    avg = cur
    n = 0
    while True:
        n += 1
        pushed = project_to_grid(push_forward(m, avg), coarsen)
        residual = l1_distance(pushed, avg)
        if residual < tol or n >= n_max:
            break
        cur = project_to_grid(push_forward(m, cur), coarsen)
        avg = add_scaled(avg, n / (n + 1.0), cur, 1.0 / (n + 1.0))
    total = avg.mass()
    cells = tuple((poly, v / total) for poly, v in avg.cells)
    out = PiecewisePolyDensity(avg.region, cells, avg.signed)
    return CesaroResult(out, n, residual, residual < tol)


def cesaro_on_csr(m, f0, n_max, tol, coarsen):
    """cesaro_fixed_density with ``coarsen``, stepping v -> (M^T (v * areas))
    / areas with M = build_ulam(m, coarsen).matrix as M.T.tocsr() @."""
    op = octagon_ulam(m, coarsen)
    areas = op.grid.cell_areas
    adjoint = op.matrix.T.tocsr()
    avg = cur = _grid_values(op.grid, f0)
    n = 0
    while True:
        n += 1
        residual = float(np.sum(np.abs((adjoint @ (avg * areas)) / areas - avg) * areas))
        if residual < tol or n >= n_max:
            break
        cur = (adjoint @ (cur * areas)) / areas
        avg = n / (n + 1.0) * avg + 1.0 / (n + 1.0) * cur
    avg = PiecewisePolyDensity(f0.region, tuple(zip(op.grid.cells, avg.tolist())), f0.signed)
    total = avg.mass()
    cells = tuple((poly, v / total) for poly, v in avg.cells)
    out = PiecewisePolyDensity(avg.region, cells, avg.signed)
    return CesaroResult(out, n, residual, residual < tol)


def tent1d_dense(a, n_cells, tol=1e-10, max_iter=20000):
    """(matrix, fixed density, iterations, residual) of tent1d_ulam, with
    the overlap of source cell i and the preimage of target cell j
    computed for every (i, j) in (n_cells, n_cells) arrays."""
    edges = np.array([-1.0 + 2.0 * k / n_cells for k in range(n_cells + 1)])
    width = 2.0 / n_cells
    lo, hi = edges[:-1, None], edges[1:, None]
    c, d = edges[:-1], edges[1:]
    pre_lo = np.maximum((c - 1.0) / a, -1.0)
    pre_hi = np.minimum((d - 1.0) / a, 0.0)
    ln = np.maximum(0.0, np.minimum(pre_hi, hi) - np.maximum(pre_lo, lo))
    pre_lo = np.maximum((1.0 - d) / a, 0.0)
    pre_hi = np.minimum((1.0 - c) / a, 1.0)
    ln = ln + np.maximum(0.0, np.minimum(pre_hi, hi) - np.maximum(pre_lo, lo))
    matrix = np.where(ln > 0.0, ln / width, 0.0)
    lengths = np.full(n_cells, width)
    p, iters, residual, _ = stationary_masses(matrix, lengths, tol, max_iter)
    return matrix, p / lengths, iters, residual
