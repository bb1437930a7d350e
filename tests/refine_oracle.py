"""The arrangement refinement as it ran with a uniform-bin cell index and
as it ran with a box test and a _split for every hit, the pushforward as
it found its pieces, and the variation sweep as it ran edge by edge: the
references the package's ``density._refine``, ``density._split``,
``density.push_forward``, ``geom2d.intersect`` and ``density.variation``
must match bit for bit.

``refine`` finds a tile's candidate cells in a 48 x 48 grid of bins over
the region's bounding box, keeps those whose bounding box overlaps the
tile's, and splits each with ``split``, which clips the kept side by every
tile plane and peels an outside piece off every plane.  ``refine_on_boxes``
finds them by comparing octagon boxes and splits every one of them with
``density._split``, also the cells a tile contains.  ``push_forward``
finds the cells that may meet a branch domain by strict overlap of their
boxes, ``meets``, tests every vertex of them against the domain's edges
in one array pass, and clips a cell with a vertex outside by every edge
of the domain, ``intersect``; it refines with ``density._refine``.
``variation`` groups the edges by line in a dict and sorts each line's
events.  Tests compare the package with these loops; nothing in the
package imports this module.
"""

import math
from typing import Iterable

import numpy as np

from geometry_oracle import bbox, centroid, kept_polygon
from tentstab import density, geom2d
from tentstab.errors import CellExplosion
from tentstab.geom2d import EMPTY, EPS_AREA, SNAP, ConvexPolygon, snap_key


def split(poly: ConvexPolygon, planes):
    """(poly ∩ clipper, convex pieces of poly \\ clipper), clipping the
    kept side by every plane; (poly, ()) when every clip kept poly's own
    vertex list."""
    clip = geom2d._clip_verts
    rests = [poly.vertices]
    for nx, ny, off in planes:
        rest = clip(rests[-1], nx, ny, off)
        if not rest:
            return EMPTY, ()
        rests.append(rest)
    if len(rests[-1]) == len(poly.vertices) and tuple(rests[-1]) == poly.vertices:
        return poly, ()
    inter = kept_polygon(rests[-1])
    if inter.is_empty:
        return EMPTY, ()
    pieces = []
    for (nx, ny, off), rest in zip(planes, rests):
        outside = clip(rest, -nx, -ny, -off)
        if outside:
            piece = kept_polygon(outside)
            if not piece.is_empty:
                pieces.append(piece)
    return inter, pieces


class CellStore:
    """Growable cell partition with a lazy uniform-bin spatial index;
    ``boxes[i]`` is the bounding box of ``polys[i]``."""

    nbins = 48

    def __init__(self, region: ConvexPolygon):
        xmin, ymin, xmax, ymax = bbox(region)
        self.x0 = xmin
        self.y0 = ymin
        self.sx = max((xmax - xmin) / self.nbins, 1e-300)
        self.sy = max((ymax - ymin) / self.nbins, 1e-300)
        self.polys: list[ConvexPolygon] = []
        self.boxes: list[tuple[float, float, float, float]] = []
        self.values: list[float] = []
        self.bins: dict[tuple[int, int], list[int]] = {}
        self.add(region, 0.0)

    def _bin_span(self, box):
        bx0 = min(max(int((box[0] - self.x0) / self.sx), 0), self.nbins - 1)
        by0 = min(max(int((box[1] - self.y0) / self.sy), 0), self.nbins - 1)
        bx1 = min(max(int((box[2] - self.x0) / self.sx), 0), self.nbins - 1)
        by1 = min(max(int((box[3] - self.y0) / self.sy), 0), self.nbins - 1)
        return bx0, by0, bx1, by1

    def add(self, poly: ConvexPolygon, value: float) -> None:
        idx = len(self.polys)
        box = bbox(poly)
        self.polys.append(poly)
        self.boxes.append(box)
        self.values.append(value)
        bx0, by0, bx1, by1 = self._bin_span(box)
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                self.bins.setdefault((bx, by), []).append(idx)

    def candidates(self, box) -> list[int]:
        bx0, by0, bx1, by1 = self._bin_span(box)
        seen = set()
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                seen.update(self.bins.get((bx, by), ()))
        return sorted(seen)


def refine(
    region: ConvexPolygon,
    tiles: Iterable[tuple[ConvexPolygon, float]],
) -> tuple[tuple[ConvexPolygon, float], ...]:
    """Partition region by a sequence of value-carrying convex tiles, cells
    sorted by snapped centroid (density._refine's contract)."""
    store = CellStore(region)
    for tile, tv in tiles:
        if tile.is_empty or tv == 0.0:
            continue
        tb = bbox(tile)
        planes = tuple(tile.edge_halfplanes())
        for idx in store.candidates(tb):
            pb = store.boxes[idx]
            if pb[0] >= tb[2] or pb[2] <= tb[0] or pb[1] >= tb[3] or pb[3] <= tb[1]:
                continue
            inter, outside = split(store.polys[idx], planes)
            if inter.is_empty:
                continue
            if not outside:
                store.values[idx] += tv
                continue
            store.polys[idx] = inter
            store.boxes[idx] = bbox(inter)
            store.values[idx] += tv
            for piece in outside:
                store.add(piece, store.values[idx] - tv)
            if len(store.polys) > density.MAX_CELLS:
                raise CellExplosion(
                    f"overlay arrangement exceeded {density.MAX_CELLS} cells"
                )
    cells = sorted(zip(store.polys, store.values), key=lambda cv: snap_key(centroid(cv[0])))
    return tuple(cells)


def refine_on_boxes(
    region: ConvexPolygon,
    tiles: Iterable[tuple[ConvexPolygon, float]],
) -> tuple[tuple[ConvexPolygon, float], ...]:
    """density._refine with no cell settled on boxes: every cell whose
    boxes meet a tile's, shrunk by the margin, goes through _split."""
    cells = [(region.vertices, region.area)]
    values = [0.0]
    boxes = np.empty((8, 64))
    boxes[:, 0] = region_box = geom2d._box(region.vertices)
    width = -region_box[4] - region_box[0]
    height = -region_box[5] - region_box[1]
    margin = EPS_AREA / (4.0 * math.hypot(width, height))
    tiles = [(tile, tv) for tile, tv in tiles if not tile.is_empty and tv != 0.0]
    tile_boxes = geom2d._boxes(*geom2d._batch([tile.vertices for tile, _ in tiles])) + margin
    limits = -np.concatenate((tile_boxes[4:], tile_boxes[:4]))
    for k, (tile, tv) in enumerate(tiles):
        hits = np.flatnonzero((boxes[:, : len(cells)] < limits[:, k, None]).all(axis=0)).tolist()
        planes = tuple(tile.edge_halfplanes())
        for idx in hits:
            inter, outside = density._split(cells[idx], planes)
            if inter is None:
                continue
            values[idx] += tv
            if not outside:
                continue
            cells[idx] = inter
            boxes[:, idx] = geom2d._box(inter[0])
            value = values[idx] - tv
            for piece in outside:
                if len(cells) == boxes.shape[1]:
                    boxes = np.concatenate([boxes, np.empty_like(boxes)], axis=1)
                boxes[:, len(cells)] = geom2d._box(piece[0])
                cells.append(piece)
                values.append(value)
            if len(cells) > density.MAX_CELLS:
                raise CellExplosion(
                    f"overlay arrangement exceeded {density.MAX_CELLS} cells"
                )
    cells = sorted(
        ((ConvexPolygon._clean(*cell), v) for cell, v in zip(cells, values)),
        key=lambda cv: snap_key(centroid(cv[0])),
    )
    return tuple(cells)


def intersect(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """a ∩ b by clipping a against every edge half-plane of b."""
    if a.is_empty or b.is_empty:
        return EMPTY
    verts = a.vertices
    for nx, ny, off in b.edge_halfplanes():
        verts = geom2d._clip_verts(verts, nx, ny, off)
        if not verts:
            return EMPTY
    return kept_polygon(verts)


def meets(boxes: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Whether both boxes of each _box column of boxes overlap both boxes
    of the matching column of other strictly."""
    return (boxes < -np.concatenate((other[4:], other[:4]))).all(axis=0)


def push_forward(m, f: density.PiecewisePolyDensity) -> density.PiecewisePolyDensity:
    """density.push_forward with pieces found by strict box overlap and a
    vertex sign pass: a cell with a vertex outside a domain's edge, by
    geom2d._clip_verts' sign test, is clipped by every edge of the domain,
    and any other cell is its own piece."""
    density._check_same_region(f.region, m.region)
    live = np.flatnonzero(np.array([v != 0.0 for _, v in f.cells], bool) & (f.batch[2] > 0))
    x, y, n = (a[live] for a in f.batch)
    boxes = geom2d._boxes(x, y, n)
    corners = np.arange(x.shape[1]) < n[:, None]
    tiles = []
    for branch in m.branches:
        inv_jac = 1.0 / branch.jacobian_abs
        hits = np.flatnonzero(meets(boxes, np.array(geom2d._box(branch.domain.vertices))[:, None]))
        nx, ny, off = np.array(branch.domain.edge_halfplanes()).T[..., None, None]
        outside = off - (nx * x[hits] + ny * y[hits]) < 0.0
        cut = (outside & corners[hits]).any(axis=(0, 2))
        for idx, clip in zip(live[hits].tolist(), cut.tolist()):
            poly, v = f.cells[idx]
            piece = intersect(poly, branch.domain) if clip else poly
            if piece.is_empty:
                continue
            kept = geom2d._mapped(branch.map, piece.vertices)
            if kept is not None:
                tiles.append((ConvexPolygon._clean(*kept), v * inv_jac))
    cells = density._refine(f.region, tiles)
    return density.PiecewisePolyDensity(f.region, cells, f.signed)


def variation(f: density.PiecewisePolyDensity) -> float:
    """Total variation of f by the per-edge loop: each edge's line key and
    its two events (s, dleft, dright), then a sweep along every line."""
    entries: dict[tuple[int, int, int], list] = {}
    for poly, v in f.cells:
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
