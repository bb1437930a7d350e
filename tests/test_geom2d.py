"""Geometry layer: examples plus randomized invariants."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import geometry_oracle
from tentstab import geom2d
from tentstab.errors import DegeneratePolygon, InvalidPolygon, SingularMatrix
from tentstab.geom2d import (
    EPS_AREA,
    AffineMap2,
    ConvexPolygon,
    Matrix2,
    affine_image,
    inradius,
    intersect,
    matrix_norms,
    monomial_integral,
    perimeter,
    snap_key,
)
from tentstab.maps import TENT_T_MIN, tent_power

from conftest import LEFT_HALF, RIGHT_HALF, TRIANGLE_T, convex_hull, random_convex_polygon

UNIT_SQUARE = geometry_oracle.box(0.0, 0.0, 1.0, 1.0)


def area(p: ConvexPolygon) -> float:
    """p.area.  Hypothesis keys its derandomized examples on a test's
    source, so the property tests keep the spelling they were written in."""
    return p.area


def min_angle(p: ConvexPolygon) -> float:
    """The minimum interior angle of one polygon, by the batched geom2d._min_angles."""
    return float(geom2d._min_angles(*geom2d._measured([p], "interior angles need"))[0])


class TestArea:
    def test_triangle_T(self):
        assert area(TRIANGLE_T) == pytest.approx(1.0, abs=1e-15)

    def test_left_half(self):
        assert area(LEFT_HALF) == pytest.approx(0.5, abs=1e-15)

    def test_collinear_is_empty(self):
        p = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
        assert p.is_empty
        assert area(p) == 0.0


class Plane(NamedTuple):
    """The closed half-plane {nx*x + ny*y <= off}; -h is its complement."""

    nx: float
    ny: float
    off: float

    def __neg__(self) -> "Plane":
        return Plane(-self.nx, -self.ny, -self.off)


def clip(poly, h):
    """poly ∩ h, built as density._split builds its pieces: one
    geom2d._clip_verts step, then what _kept keeps of it."""
    return geometry_oracle.kept_polygon(geom2d._clip_verts(poly.vertices, *h))


class TestClip:
    def test_halves_left_triangle(self):
        out = clip(LEFT_HALF, Plane(1.0, 0.0, 0.5))  # x <= 0.5
        assert area(out) == pytest.approx(0.125, abs=1e-12)
        keys = {snap_key(v) for v in out.vertices}
        assert keys == {snap_key(p) for p in ((0, 0), (0.5, 0), (0.5, 0.5))}

    def test_containing_halfplane_is_identity(self):
        out = clip(TRIANGLE_T, Plane(1.0, 0.0, 10.0))
        assert set(out.vertices) == set(TRIANGLE_T.vertices)

    def test_disjoint_halfplane_gives_empty(self):
        assert clip(TRIANGLE_T, Plane(1.0, 0.0, -1.0)).is_empty  # x <= -1


class TestIntersect:
    def test_self_intersection(self):
        out = intersect(TRIANGLE_T, TRIANGLE_T)
        assert area(out) == pytest.approx(area(TRIANGLE_T), abs=1e-12)

    def test_halves_share_null_set(self):
        assert intersect(LEFT_HALF, RIGHT_HALF).is_empty

    def test_shifted_squares(self):
        other = geometry_oracle.box(0.5, 0.0, 1.5, 1.0)
        assert area(intersect(UNIT_SQUARE, other)) == pytest.approx(0.5, abs=1e-12)


class TestAffineImage:
    def test_tent_branch_maps_left_onto_T(self):
        m = AffineMap2(Matrix2(1.0, 1.0, 1.0, -1.0), (0.0, 0.0))
        out = affine_image(m, LEFT_HALF)
        assert {snap_key(v) for v in out.vertices} == {
            snap_key(v) for v in TRIANGLE_T.vertices
        }

    def test_identity(self):
        ident = AffineMap2(Matrix2(1.0, 0.0, 0.0, 1.0), (0.0, 0.0))
        assert affine_image(ident, TRIANGLE_T).vertices == TRIANGLE_T.vertices

    def test_tent_branch_maps_right_onto_T(self):
        m = AffineMap2(Matrix2(-1.0, 1.0, -1.0, -1.0), (2.0, 2.0))
        out = affine_image(m, RIGHT_HALF)
        assert {snap_key(v) for v in out.vertices} == {
            snap_key(v) for v in TRIANGLE_T.vertices
        }

    def test_singular_rejected(self):
        bad = AffineMap2(Matrix2(1.0, 1.0, 1.0, 1.0), (0.0, 0.0))
        with pytest.raises(SingularMatrix):
            affine_image(bad, TRIANGLE_T)


class TestMatrixNorms:
    def test_inverse_tent_linear(self):
        m = Matrix2(1.0, 1.0, 1.0, -1.0).inverse()
        norms = matrix_norms(m)
        assert norms["spectral"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
        assert norms["max_entry"] == pytest.approx(0.5, abs=1e-15)

    def test_identity(self):
        norms = matrix_norms(Matrix2(1.0, 0.0, 0.0, 1.0))
        assert norms["spectral"] == pytest.approx(1.0, abs=1e-15)
        assert norms["max_entry"] == 1.0

    def test_diagonal(self):
        norms = matrix_norms(Matrix2(2.0, 0.0, 0.0, 3.0))
        assert norms["spectral"] == pytest.approx(3.0, abs=1e-14)
        assert norms["max_entry"] == 3.0
        assert norms["det"] == pytest.approx(6.0, abs=1e-15)


class TestAngles:
    def test_square(self):
        assert min_angle(UNIT_SQUARE) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_right_isoceles(self):
        assert min_angle(LEFT_HALF) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_equilateral(self):
        tri = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))
        assert min_angle(tri) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegeneratePolygon):
            min_angle(ConvexPolygon(()))


class TestInradius:
    def test_unit_square(self):
        assert inradius(UNIT_SQUARE) == pytest.approx(0.5, abs=1e-9)

    def test_right_triangle(self):
        tri = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
        expected = (1.0 + 1.0 - math.sqrt(2.0)) / 2.0
        assert inradius(tri) == pytest.approx(expected, abs=1e-9)

    def test_rectangle(self):
        assert inradius(geometry_oracle.box(0.0, 0.0, 2.0, 1.0)) == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegeneratePolygon):
            inradius(ConvexPolygon(()))

    @pytest.mark.parametrize("t", [TENT_T_MIN, 0.9, 1.0])
    def test_matches_lp_on_tent_branches(self, t):
        # linprog is the test-only oracle: maximize r subject to
        # n_i . z + r <= offset_i over the unit outward edge normals.
        from scipy.optimize import linprog

        def lp_inradius(poly):
            rows, rhs = [], []
            for nx, ny, off in poly.edge_halfplanes():
                nrm = math.hypot(nx, ny)
                rows.append([nx / nrm, ny / nrm, 1.0])
                rhs.append(off / nrm)
            res = linprog(
                c=[0.0, 0.0, -1.0],
                A_ub=np.array(rows),
                b_ub=np.array(rhs),
                bounds=[(None, None), (None, None), (0.0, None)],
                method="highs",
            )
            assert res.success
            return float(res.x[2])

        for k in range(1, 7):
            for b in tent_power(t, k).branches:
                for poly in (b.domain, affine_image(b.map, b.domain)):
                    expected = lp_inradius(poly)
                    assert abs(inradius(poly) - expected) <= 1e-11 * expected


@given(seed=st.integers(0, 2**32 - 1), npts=st.integers(3, 24))
@settings(max_examples=100, deadline=None)
def test_batched_measures_match_the_per_polygon_loops(seed, npts):
    poly = random_convex_polygon(np.random.default_rng(seed), npts=npts)
    assert float.hex(min_angle(poly)) == float.hex(geometry_oracle.min_interior_angle(poly))
    assert float.hex(inradius(poly)) == float.hex(geometry_oracle.inradius(poly))
    cx, cy = geom2d._centroids(*geom2d._batch([poly.vertices]), np.array([poly.area]))
    want = geometry_oracle.centroid(poly)
    assert (cx[0].hex(), cy[0].hex()) == (want.x.hex(), want.y.hex())


def _contains_per_edge(poly, p, tol):
    """Reference for ConvexPolygon.contains: the edge terms recomputed on
    every call instead of cached, and a NaN coordinate failing every edge."""
    if poly.is_empty:
        return False
    for (ax, ay), (bx, by) in poly.edges():
        dx, dy = bx - ax, by - ay
        if not (dx * (p[1] - ay) - dy * (p[0] - ax) >= -tol * math.hypot(dx, dy)):
            return False
    return True


def test_contains_matches_per_edge_loop(rng):
    for _ in range(30):
        poly = random_convex_polygon(rng)
        pts = [tuple(q) for q in rng.uniform(-2.5, 2.5, (40, 2))]
        pts += list(poly.vertices)
        pts += [((ax + bx) / 2.0, (ay + by) / 2.0) for (ax, ay), (bx, by) in poly.edges()]
        pts += [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)]
        for tol in (geom2d.EPS_GEOM, 1e-7, 0.0, -1e-6):
            for p in pts:
                assert poly.contains(p, tol) == _contains_per_edge(poly, p, tol)
    assert not geom2d.EMPTY.contains((0.0, 0.0), 1.0)


@pytest.mark.parametrize("p", [(math.nan, 0.2), (1.0, math.nan), (math.nan, math.nan)])
def test_nan_point_is_outside(p):
    assert not TRIANGLE_T.contains(p)
    assert not TRIANGLE_T.contains(p, 10.0)


def test_non_convex_input_rejected():
    with pytest.raises(InvalidPolygon):
        ConvexPolygon(((0, 0), (2, 0), (1, 0.2), (2, 2)))
    with pytest.raises(InvalidPolygon):
        ConvexPolygon(((0, 0), (1, 1), (1, 0)))  # clockwise


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_vertex_rejected(bad):
    with pytest.raises(InvalidPolygon, match="non-finite vertex"):
        ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.5, bad)))


def test_polygons_are_immutable():
    with pytest.raises(AttributeError, match="immutable"):
        TRIANGLE_T.vertices = ()


def test_singular_matrix_inverse_rejected():
    with pytest.raises(SingularMatrix):
        Matrix2(1.0, 2.0, 2.0, 4.0).inverse()


class TestCentroid:
    def test_empty_raises(self):
        with pytest.raises(DegeneratePolygon):
            geometry_oracle.centroid(geom2d.EMPTY)

    def test_tiny_clockwise_triangle_takes_vertex_mean(self):
        # Signed area -5e-11: clockwise, but its turns (-1e-10) are within
        # the validation tolerance and its |area| is above EPS_AREA, so it is
        # kept, and centroid falls back to the mean of its vertices.
        s = 1e-5
        tri = ConvexPolygon(((0.0, 0.0), (0.0, s), (s, 0.0)))
        assert len(tri.vertices) == 3 and tri.area == 0.0
        assert geometry_oracle.centroid(tri) == (s / 3.0, s / 3.0)


# -- randomized invariants ---------------------------------------------------

finite_coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def convex_polygons(draw, max_pts=9):
    pts = draw(
        st.lists(st.tuples(finite_coord, finite_coord), min_size=3, max_size=max_pts)
    )
    hull = convex_hull(pts)
    poly = ConvexPolygon(hull) if len(hull) >= 3 else ConvexPolygon(())
    if poly.is_empty or poly.area < 1e-4:
        # retry with a deterministic fallback shift to keep shrinking sane
        pts = [(x + 1.7 * i, y + 0.9 * (i % 3)) for i, (x, y) in enumerate(pts)]
        hull = convex_hull(pts)
        poly = ConvexPolygon(hull) if len(hull) >= 3 else ConvexPolygon(())
    if poly.is_empty or poly.area < 1e-4:
        poly = TRIANGLE_T
    return poly


@st.composite
def halfplanes(draw):
    angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    offset = draw(st.floats(min_value=-3.0, max_value=3.0))
    return Plane(math.cos(angle), math.sin(angle), offset)


@given(convex_polygons(), halfplanes())
@example(ConvexPolygon(((-1e-12, 0.0), (1.0, 0.0), (0.0, 2.0))), Plane(1.0, 0.0, 0.0))
@settings(max_examples=150, deadline=None)
def test_area_additivity_under_clipping(poly, h):
    # A piece below EPS_AREA is dropped; the sum of the kept areas adds its
    # own rounding on top of that.
    total = area(clip(poly, h)) + area(clip(poly, -h))
    assert abs(total - area(poly)) <= EPS_AREA + 4 * math.ulp(area(poly))


@pytest.mark.xfail(
    strict=True,
    reason="geom2d._dedup merges the cut's two crossing points, 1e-10 apart "
    "(EPS_GEOM = 1e-9), and the larger piece loses 1e-10 of area",
)
def test_area_additivity_for_a_cut_next_to_a_vertex():
    # The tent triangle cut at x = 1e-10: the additivity property above,
    # at a cut its derandomized examples never draw.
    h = Plane(1.0, 0.0, 1e-10)
    total = area(clip(TRIANGLE_T, h)) + area(clip(TRIANGLE_T, -h))
    assert abs(total - area(TRIANGLE_T)) <= EPS_AREA + 4 * math.ulp(area(TRIANGLE_T))


@given(
    convex_polygons(),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=150, deadline=None)
def test_affine_area_scaling(poly, a, b, c, d):
    m = Matrix2(a, b, c, d)
    det = abs(m.det())
    if det <= 1e-6:
        return
    out = affine_image(AffineMap2(m, (0.3, -0.2)), poly)
    assert abs(area(out) - det * area(poly)) <= 1e-10 * max(1.0, det)


@given(convex_polygons(), convex_polygons())
@settings(max_examples=150, deadline=None)
def test_clipping_monotonicity(a, b):
    inter = intersect(a, b)
    assert area(inter) <= min(area(a), area(b)) + EPS_AREA


@given(convex_polygons(), convex_polygons())
@settings(max_examples=150, deadline=None)
def test_intersection_area_symmetry(a, b):
    assert abs(area(intersect(a, b)) - area(intersect(b, a))) <= EPS_AREA


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_spectral_inverse_relation(a, b, c, d):
    m = Matrix2(a, b, c, d)
    if abs(m.det()) <= 1e-6:
        return
    s = matrix_norms(m)["spectral"]
    s_inv = matrix_norms(m.inverse())["spectral"]
    assert s * s_inv >= 1.0 - 1e-12
    assert s_inv >= 1.0 / s - 1e-12


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_conformal_spectral_norm(s, angle, reflect):
    c, sn = math.cos(angle), math.sin(angle)
    if reflect:
        m = Matrix2(s * c, s * sn, s * sn, -s * c)
    else:
        m = Matrix2(s * c, -s * sn, s * sn, s * c)
    assert matrix_norms(m)["spectral"] == pytest.approx(s, abs=1e-12)


def _quadrature(poly, ax, ay, n=600):
    xmin, ymin, xmax, ymax = geometry_oracle.bbox(poly)
    xs = np.linspace(xmin, xmax, n, endpoint=False) + (xmax - xmin) / (2 * n)
    ys = np.linspace(ymin, ymax, n, endpoint=False) + (ymax - ymin) / (2 * n)
    X, Y = np.meshgrid(xs, ys)
    inside = np.ones_like(X, dtype=bool)
    for (a, b) in poly.edges():
        dx, dy = b[0] - a[0], b[1] - a[1]
        inside &= dx * (Y - a[1]) - dy * (X - a[0]) >= 0
    w = (xmax - xmin) * (ymax - ymin) / (n * n)
    return float(np.sum(X**ax * Y**ay * inside) * w)


@pytest.mark.parametrize("ax,ay", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_monomial_integral_against_quadrature(ax, ay, rng):
    # unit square check is closed-form: integral = 1/((ax+1)(ay+1))
    exact = 1.0 / ((ax + 1) * (ay + 1))
    assert monomial_integral(UNIT_SQUARE, ax, ay) == pytest.approx(exact, abs=1e-14)
    for _ in range(3):
        poly = random_convex_polygon(rng, inside=TRIANGLE_T)
        approx = _quadrature(poly, ax, ay)
        assert monomial_integral(poly, ax, ay) == pytest.approx(approx, abs=5e-4)


def test_monomial_integral_rejects_degree_3():
    with pytest.raises(ValueError, match="degree <= 2"):
        monomial_integral(UNIT_SQUARE, 2, 1)


def test_perimeter_triangle():
    assert perimeter(TRIANGLE_T) == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), abs=1e-12)
