"""Pushforward, variation, norms, Cesaro iteration, and Ulam operators."""

import functools
import hashlib
import math
import operator
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import refine_oracle
import ulam_oracle
import geometry_oracle
from geometry_oracle import box, kept_polygon
from tentstab import density as D, geom2d
from tentstab.errors import (
    CellExplosion,
    Error,
    NotOctilinear,
    ParameterOutOfRange,
    RegionMismatch,
    ResolutionTooLow,
    SingularMatrix,
)
from tentstab.geom2d import EPS_AREA, EPS_GEOM, AffineMap2, ConvexPolygon, Matrix2, perimeter
from tentstab.maps import TENT_T_MIN, Branch, PiecewiseMap, make_tent2d, power, tent_power

from conftest import (
    LEFT_HALF,
    TRIANGLE_T,
    cached_fixed,
    convex_hull,
    random_convex_polygon,
    random_grid_density,
)

TAU = TENT_T_MIN
OFF_LATTICE_QUAD = ConvexPolygon(((0.13, 0.07), (1.91, 0.21), (1.47, 1.33), (0.29, 0.88)))


@pytest.fixture
def uniform():
    return D.uniform_density(TRIANGLE_T)


@pytest.fixture
def chi_left():
    return D.indicator_density(TRIANGLE_T, LEFT_HALF, 1.0)


class TestPushForward:
    def test_lebesgue_invariant_at_t1(self, uniform):
        out = D.push_forward(make_tent2d(1.0), uniform)
        assert D.l1_distance(out, uniform) <= 1e-12
        assert out.mass() == pytest.approx(1.0, abs=1e-12)

    def test_indicator_spreads_to_half(self, chi_left):
        out = D.push_forward(make_tent2d(1.0), chi_left)
        for _, v in out.cells:
            assert v == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("t", [TAU, 0.95, 1.0])
    def test_mass_conservation(self, t, rng):
        m = make_tent2d(t)
        for n in (2, 3):
            f = random_grid_density(rng, TRIANGLE_T, n)
            out = D.push_forward(m, f)
            assert abs(out.mass() - f.mass()) <= 1e-9

    def test_positivity(self, rng):
        f = random_grid_density(rng, TRIANGLE_T, 3)
        out = D.push_forward(make_tent2d(0.9), f)
        assert all(v >= 0.0 for _, v in out.cells)
        assert not out.signed

    def test_linearity(self, rng):
        m = make_tent2d(0.93)
        f = random_grid_density(rng, TRIANGLE_T, 3)
        g = random_grid_density(rng, TRIANGLE_T, 4)
        alpha, beta = 0.7, -0.4
        combo = D.add_scaled(f, alpha, g, beta)
        lhs = D.push_forward(m, combo)
        rhs = D.add_scaled(
            D.push_forward(m, f), alpha, D.push_forward(m, g), beta
        )
        assert D.l1_distance(lhs, rhs) <= 1e-9

    def test_semigroup(self, chi_left):
        m = make_tent2d(0.9)
        m2 = power(m, 2)
        once = D.push_forward(m2, chi_left)
        twice = D.push_forward(m, D.push_forward(m, chi_left))
        assert D.l1_distance(once, twice) <= 1e-7

    def test_region_mismatch(self, uniform):
        other = D.uniform_density(box(0.0, 0.0, 1.0, 1.0))
        with pytest.raises(RegionMismatch):
            D.push_forward(make_tent2d(1.0), other)

    def test_output_tiles_region(self, rng):
        f = random_grid_density(rng, TRIANGLE_T, 3)
        out = D.push_forward(make_tent2d(0.9), f)
        total = sum(poly.area for poly, _ in out.cells)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestVariation:
    def test_uniform_on_T(self, uniform):
        # values are 1 on T, so the jump runs along the whole perimeter
        assert D.variation(uniform) == pytest.approx(
            2.0 + 2.0 * math.sqrt(2.0), abs=1e-12
        )

    def test_indicator_left(self, chi_left):
        assert D.variation(chi_left) == pytest.approx(
            2.0 + math.sqrt(2.0), abs=1e-12
        )

    def test_zero_density(self):
        f = D.PiecewisePolyDensity(TRIANGLE_T, ((TRIANGLE_T, 0.0),))
        assert D.variation(f) == 0.0

    def test_indicator_variation_is_perimeter(self, rng):
        for _ in range(12):
            q = random_convex_polygon(rng, inside=TRIANGLE_T)
            f = D.indicator_density(TRIANGLE_T, q, 1.0)
            assert abs(D.variation(f) - perimeter(q)) <= 1e-8

    def test_grid_density_variation_matches_bruteforce(self, rng):
        # brute force: every edge contributes |jump to the other side| x
        # length; interior edges are visited once from each side, so they
        # enter at half weight, region-boundary edges jump against 0
        f = random_grid_density(rng, TRIANGLE_T, 2)
        expected = 0.0
        cells = list(f.cells)
        for i, (pi, vi) in enumerate(cells):
            for a, b in pi.edges():
                length = math.hypot(b[0] - a[0], b[1] - a[1])
                mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
                neighbor_value = None
                for j, (pj, vj) in enumerate(cells):
                    if j != i and pj.contains(mid, 1e-9):
                        neighbor_value = vj
                        break
                if neighbor_value is None:
                    expected += abs(vi) * length
                else:
                    expected += 0.5 * abs(vi - neighbor_value) * length
        assert D.variation(f) == pytest.approx(expected, abs=1e-8)


@st.composite
def _variation_cases(draw):
    """Densities for the variation oracle: exact pushforward iterates of
    lycheck's starts (the indicator has zero-valued cells, whose closing
    events carry -0.0), their signed add_scaled combinations, all-zero and
    one-cell densities."""
    t = draw(st.sampled_from([TAU, 0.9, 0.94187, 0.999999, 1.0]))
    m = tent_power(t, draw(st.integers(1, 3)))
    prev = f = _start(m, draw(st.sampled_from(["uniform", "lefthalf"])))
    for _ in range(draw(st.integers(0, 3))):
        prev, f = f, D.push_forward(m, f)
    kind = draw(st.sampled_from(["iterate", "combination", "zero", "one cell"]))
    if kind == "combination":
        weights = st.sampled_from([1.0, -1.0, 0.75, -0.5, 1.0 / 3.0, 0.0])
        return D.add_scaled(f, draw(weights), prev, draw(weights))
    if kind == "zero":
        return D.add_scaled(f, 0.0, f, 0.0)
    if kind == "one cell":
        poly = draw(lattice_polygons())
        return D.PiecewisePolyDensity(poly, ((poly, draw(st.sampled_from([1.0, -2.5, 0.0]))),), True)
    return f


@given(f=_variation_cases())
@settings(max_examples=150, deadline=None)
def test_variation_matches_the_per_edge_loop(f):
    assert float.hex(D.variation(f)) == float.hex(refine_oracle.variation(f))


@pytest.mark.parametrize("t, start", [(0.94187, "uniform"), (TAU, "lefthalf"), (0.999999, "uniform")])
def test_variation_of_lycheck_iterates_matches_the_per_edge_loop(t, start):
    m = tent_power(t, 3)
    f = _start(m, start)
    for _ in range(5):
        f = D.push_forward(m, f)
        assert float.hex(D.variation(f)) == float.hex(refine_oracle.variation(f))


class TestNorms:
    def test_l1_of_uniform(self, uniform):
        assert D.lp_norm(uniform, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_l2_of_indicator(self, chi_left):
        assert D.lp_norm(chi_left, 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_constant_any_p(self):
        f = D.PiecewisePolyDensity(TRIANGLE_T, ((TRIANGLE_T, 3.0),))
        for p in (1.0, 2.0, 3.5):
            assert D.lp_norm(f, p) == pytest.approx(3.0 * 1.0 ** (1.0 / p), abs=1e-12)

    def test_l1_distance_examples(self, uniform, chi_left):
        assert D.l1_distance(uniform, uniform) == 0.0
        chi_right = D.indicator_density(
            TRIANGLE_T, ConvexPolygon(((1.0, 0.0), (2.0, 0.0), (1.0, 1.0))), 1.0
        )
        assert D.l1_distance(chi_left, chi_right) == pytest.approx(1.0, abs=1e-12)
        zero = D.PiecewisePolyDensity(TRIANGLE_T, ((TRIANGLE_T, 0.0),))
        assert D.l1_distance(uniform, zero) == pytest.approx(1.0, abs=1e-12)

    def test_lp_norm_rejects_p_below_1(self, uniform):
        with pytest.raises(ParameterOutOfRange, match="p >= 1"):
            D.lp_norm(uniform, 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_lp_norm_rejects_non_finite_p(self, p):
        # The formula read lp_norm(2 chi_left, inf) as 1.0, not the sup
        # norm 2, and lp_norm(f, nan) as nan.
        f = D.indicator_density(TRIANGLE_T, LEFT_HALF, 2.0)
        with pytest.raises(ParameterOutOfRange, match="finite p >= 1"):
            D.lp_norm(f, p)


class TestValues:
    def test_unsigned_rejects_negative_value(self):
        with pytest.raises(ValueError, match="unsigned density has invalid value -1.0"):
            D.PiecewisePolyDensity(TRIANGLE_T, ((TRIANGLE_T, -1.0),))

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_value(self, v, signed):
        with pytest.raises(ValueError, match="density has invalid value"):
            D.PiecewisePolyDensity(TRIANGLE_T, ((TRIANGLE_T, v),), signed=signed)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_add_scaled_rejects_non_finite_result(self, uniform, chi_left, alpha):
        with pytest.raises(ValueError, match="density has invalid value"):
            D.add_scaled(uniform, alpha, chi_left, 1.0)
        with pytest.raises(ValueError, match="density has invalid value"):
            D.add_scaled(uniform, alpha, uniform, 1.0)


def sobolev_ratio(f) -> float:
    """||f||_2 / V(f); compare against the sharp planar constant 1/(2*sqrt(pi))."""
    return D.lp_norm(f, 2.0) / D.variation(f)


class TestSobolev:
    SHARP = 1.0 / (2.0 * math.sqrt(math.pi))

    def test_unit_square_indicator(self):
        square = box(0.0, 0.0, 1.0, 1.0)
        f = D.PiecewisePolyDensity(square, ((square, 1.0),))
        assert sobolev_ratio(f) == pytest.approx(0.25, abs=1e-12)
        assert sobolev_ratio(f) <= self.SHARP

    def test_indicator_left(self, chi_left):
        expected = math.sqrt(0.5) / (2.0 + math.sqrt(2.0))
        assert sobolev_ratio(chi_left) == pytest.approx(expected, abs=1e-12)

    def test_uniform(self, uniform):
        assert sobolev_ratio(uniform) == pytest.approx(
            1.0 / (2.0 + 2.0 * math.sqrt(2.0)), abs=1e-12
        )

    def test_pushforward_iterates_stay_below_sharp(self, rng):
        m = make_tent2d(TAU)
        f = random_grid_density(rng, TRIANGLE_T, 3)
        for _ in range(3):
            f = D.push_forward(m, f)
            assert sobolev_ratio(f) <= self.SHARP + 1e-9


class TestCesaro:
    def test_t1_uniform_immediate(self, uniform):
        res = D.cesaro_fixed_density(make_tent2d(1.0), uniform, n_max=10, tol=1e-10)
        assert res.iterations == 1
        assert res.residual == 0.0
        assert res.converged

    def test_one_step_residual(self):
        f0 = D.indicator_density(TRIANGLE_T, LEFT_HALF, 2.0)
        m = make_tent2d(1.0)
        pushed = D.push_forward(m, f0)
        assert D.l1_distance(pushed, f0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.9, 1.0])
    def test_residuals_bounded(self, t, uniform):
        res = D.cesaro_fixed_density(make_tent2d(t), uniform, n_max=3, tol=1e-12)
        assert res.residual <= 2.0
        assert res.density.mass() == pytest.approx(1.0, abs=1e-9)

    def test_requires_probability(self):
        bad = D.PiecewisePolyDensity(TRIANGLE_T, ((TRIANGLE_T, 2.0),))
        with pytest.raises(ParameterOutOfRange):
            D.cesaro_fixed_density(make_tent2d(1.0), bad)

    def test_coarsened_run_matches_ulam_action(self, rng):
        # projecting the exact pushforward of a grid density onto the same
        # grid is exactly the adjoint action of the Ulam matrix
        t, n = 0.93, 8
        f = random_grid_density(rng, TRIANGLE_T, n)
        m = make_tent2d(t)
        geometric = D.project_to_grid(D.push_forward(m, f), n)
        op = D.build_ulam(m, n)
        masses = np.array([v * poly.area for poly, v in f.cells])
        pushed_masses = op.matrix.T @ masses
        areas = op.grid.cell_areas
        matrix_values = pushed_masses / areas
        for (poly, v), mv in zip(geometric.cells, matrix_values):
            assert v == pytest.approx(mv, abs=1e-10)

    @pytest.mark.parametrize("f0_name", ["uniform", "lefthalf"])
    @pytest.mark.parametrize("pw", [1, 2])
    @pytest.mark.parametrize("t", [TAU, 0.8, 0.9, 0.995, 1.0])
    def test_coarsened_run_matches_arrangement_oracle(self, t, pw, f0_name):
        m = tent_power(t, pw)
        if f0_name == "uniform":
            f0 = D.uniform_density(m.region)
        else:
            f0 = D.indicator_density(m.region, LEFT_HALF, 2.0)
        for coarsen in (2, 3, 4, 16):
            for n_max in (1, 3):
                got = D.cesaro_fixed_density(m, f0, n_max=n_max, coarsen=coarsen)
                want = ulam_oracle.cesaro_coarsened(m, f0, n_max, 1e-8, coarsen)
                assert (got.iterations, got.converged) == (want.iterations, want.converged)
                assert got.residual == pytest.approx(want.residual, rel=0.0, abs=1e-12)
                assert _cells_within_an_ulp(
                    [c for c, _ in got.density.cells], [c for c, _ in want.density.cells]
                )
                for (_, v), (_, w) in zip(got.density.cells, want.density.cells):
                    assert v == pytest.approx(w, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("f0_name", ["uniform", "lefthalf"])
    @pytest.mark.parametrize("pw", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [TAU, 0.9, 0.995, 1.0])
    def test_coarsened_run_matches_the_csr_matrix_loop(self, t, pw, f0_name):
        # The same sums as csr_matvec on build_ulam's M.T.tocsr(), so the
        # same bits: the chain reads the arrays that the CSR matrix views.
        m = tent_power(t, pw)
        if f0_name == "uniform":
            f0 = D.uniform_density(m.region)
        else:
            f0 = D.indicator_density(m.region, LEFT_HALF, 2.0)
        for coarsen in (2, 3, 4, 16, 24):
            got = D.cesaro_fixed_density(m, f0, n_max=64, coarsen=coarsen)
            want = ulam_oracle.cesaro_on_csr(m, f0, 64, 1e-8, coarsen)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            assert [c for c, _ in got.density.cells] == [c for c, _ in want.density.cells]
            assert got.residual.hex() == want.residual.hex()
            values = [v.hex() for _, v in got.density.cells]
            assert values == [v.hex() for _, v in want.density.cells]

    @pytest.mark.parametrize("pw, resolution", [(4, 16), (8, 32)])
    def test_summed_entries_add_left_to_right_in_stored_order(self, pw, resolution):
        # Entry (i, j) sums one overlap for each branch whose image of cell
        # i meets cell j, stored in branch order.  A one-branch map's matrix
        # holds that branch's overlaps, with the same bits, one per entry.
        m = tent_power(0.9, pw)
        op = D.build_ulam(m, resolution)
        groups = {}
        for branch in m.branches:
            one = D.build_ulam(PiecewiseMap(m.region, (branch,)), op.grid)
            for key, v in _stored_entries(one):
                groups.setdefault(key, []).append(v)
        assert max(map(len, groups.values())) >= 3
        got = _stored_entries(op)
        assert [key for key, _ in got] == sorted(groups)
        want = [functools.reduce(operator.add, groups[key]) for key, _ in got]
        assert [v.hex() for _, v in got] == [v.hex() for v in want]

    def test_coarsened_run_leaves_scipy_sparse_unloaded(self, monkeypatch, uniform):
        monkeypatch.delitem(sys.modules, "scipy.sparse")
        res = D.cesaro_fixed_density(make_tent2d(0.9), uniform, n_max=3, coarsen=4)
        assert "scipy.sparse" not in sys.modules
        assert res.iterations == 3

    def test_coarsened_run_near_t1_keeps_the_mass_clipping_drops(self):
        # At t = 1 - 1.3e-9, power 2, resolution 24 clipping merges slivers
        # away: the per-cell loop's Ulam row 467 sums to 1 - 3.1e-8, and
        # the exact pushforward of the projected uniform density misses the
        # Ulam matrix's action by up to 4.6e-8 on a cell.  The octagon
        # matrix keeps every row at 1, so the matrix path meets tol = 1e-8
        # one step before the arrangement oracle, and they differ by
        # 8.6e-8 relative, the oracle's first step.
        m = tent_power(0.9999999987175887, 2)
        rows = np.asarray(D.build_ulam(m, 24).matrix.sum(axis=1)).ravel()
        assert np.abs(rows - 1.0).max() <= 1e-13
        grid, matrix = ulam_oracle.build_ulam(m, 24)
        lost = 1.0 - matrix[467].sum()
        assert lost == pytest.approx(3.0778e-8, rel=1e-4)
        assert lost == pytest.approx(ulam_oracle.dropped_mass(m, grid, 467), rel=1e-5)
        f0 = D.uniform_density(m.region)
        got = D.cesaro_fixed_density(m, f0, n_max=3, coarsen=24)
        want = ulam_oracle.cesaro_coarsened(m, f0, 3, 1e-8, 24)
        assert (got.iterations, got.converged) == (1, True)
        assert (want.iterations, want.converged) == (2, True)
        assert got.residual == pytest.approx(9.217331e-9, rel=1e-6)
        assert want.residual == pytest.approx(9.629218e-9, rel=1e-6)
        diff = max(
            abs(v - w) / w for (_, v), (_, w) in zip(got.density.cells, want.density.cells)
        )
        assert diff == pytest.approx(8.5749e-8, rel=1e-4)

    @pytest.mark.parametrize("coarsen", [0, 1, -4])
    def test_rejects_coarsen_below_2(self, uniform, coarsen):
        with pytest.raises(ParameterOutOfRange, match="coarsen"):
            D.cesaro_fixed_density(make_tent2d(0.9), uniform, coarsen=coarsen)

    @pytest.mark.parametrize("coarsen", [None, 4])
    @pytest.mark.parametrize("n_max", [0, -1])
    def test_rejects_n_max_below_1(self, uniform, n_max, coarsen):
        with pytest.raises(ParameterOutOfRange, match="n_max"):
            D.cesaro_fixed_density(make_tent2d(0.9), uniform, n_max=n_max, coarsen=coarsen)


class TestUlam:
    @pytest.mark.parametrize("t", [TAU, 0.95, 1.0])
    def test_rows_stochastic(self, t):
        op, _ = cached_fixed(t, 16)
        rows = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.abs(rows - 1.0).max() <= 1e-13
        assert op.matrix.min() >= 0.0
        assert op.matrix.max() <= 1.0 + 1e-12

    def test_t1_uniform_exactly_fixed(self):
        op, vec = cached_fixed(1.0, 16)
        assert np.abs(vec.values - 1.0).max() <= 1e-9
        masses = op.grid.cell_areas
        assert np.abs(op.matrix.T @ masses - masses).max() <= 1e-12

    def test_two_cell_doubly_stochastic(self):
        grid = D.UlamGrid.build(box(0.0, 0.0, 2.0, 1.0), 2)
        # a hand matrix on equal-area cells: every entry 1 / n
        n = len(grid.cells)
        indptr = np.arange(0, n * n + 1, n, dtype=np.int32)
        indices = np.tile(np.arange(n, dtype=np.int32), n)
        op = D.UlamOperator(grid, indptr, indices, np.full(n * n, 1.0 / n))
        vec = D.ulam_fixed(op, 1e-12)
        assert np.allclose(vec.values, vec.values[0])

    def test_resolution_validation(self):
        with pytest.raises(ParameterOutOfRange):
            D.build_ulam(make_tent2d(1.0), 1)

    def test_consistency_under_refinement(self):
        t = 0.93
        dens = {}
        for n in (16, 32, 64):
            op, vec = cached_fixed(t, n)
            dens[n] = D.density_from_vector(op.grid, vec)
        d1 = D.l1_distance(dens[16], dens[32])
        d2 = D.l1_distance(dens[32], dens[64])
        assert d2 <= d1 * 1.1

    def test_density_vector_normalized(self):
        op, vec = cached_fixed(0.95, 16)
        mass = float(vec.values @ op.grid.cell_areas)
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert vec.values.min() >= 0.0


class TestExports:
    def test_density_csv_roundtrip(self):
        op, vec = cached_fixed(0.95, 16)
        text = D.density_csv(op.grid, vec.values)
        lines = text.strip().split("\n")
        assert lines[0].startswith("cell_id,area,centroid_x,centroid_y,value,n_vertices,v0x,v0y")
        assert len(lines) == 1 + len(op.grid.cell_areas)
        first = lines[1].split(",")
        assert float(first[1]) > 0.0

    def test_matrix_csv(self):
        op, _ = cached_fixed(1.0, 16)
        text = D.ulam_matrix_csv(op.matrix)
        lines = text.strip().split("\n")
        assert lines[0] == "i,j,weight"
        i, j, w = lines[1].split(",")
        assert float(w) > 0.0

    def test_matrix_csv_same_for_dense_and_every_sparse_format(self):
        dense = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.25, 0.75]])
        text = D.ulam_matrix_csv(dense)
        assert text == "i,j,weight\n0,1,0.5\n0,2,0.5\n1,0,1\n2,1,0.25\n2,2,0.75\n"
        for form in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            assert D.ulam_matrix_csv(form(dense)) == text

    def test_matrix_csv_bytes_match_golden(self):
        # the matrix of the golden `density --t 0.95 --resolution 16` run
        op, _ = cached_fixed(0.95, 16)
        golden = Path(__file__).parent / "golden" / "density_matrix.matrix"
        assert D.ulam_matrix_csv(op.matrix) == golden.read_text()

    def test_matrix_csv_heap_peak_bounded_by_output(self):
        # entries are formatted OVERLAY_CHUNK at a time; formatting the
        # whole matrix at once peaked at 6.7 times the text
        op = D.build_ulam(tent_power(0.939, 1), 128)
        tracemalloc.start()
        try:
            text = D.ulam_matrix_csv(op.matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) > 3_000_000
        assert peak < 3.5 * len(text)

    def test_csv_floats_roundtrip(self):
        op, vec = cached_fixed(0.95, 16)
        text = D.density_csv(op.grid, vec.values)
        for line in text.strip().split("\n")[1:]:
            parts = line.split(",")
            area_back = float(parts[1])
            # 17 significant digits round-trip doubles exactly
            assert f"{area_back:.17g}" == parts[1]


def test_project_to_grid_preserves_mass(rng):
    f = random_grid_density(rng, TRIANGLE_T, 5)
    g = D.project_to_grid(f, 3)
    assert g.mass() == pytest.approx(f.mass(), abs=1e-12)


def _stored_entries(op) -> list:
    """((row, column), value) of every entry op stores, in stored order."""
    rows = np.repeat(np.arange(len(op.indptr) - 1), np.diff(op.indptr))
    return list(zip(zip(rows.tolist(), op.indices.tolist()), op.data.tolist()))


def _bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _same_cells(got, want) -> bool:
    """Vertex tuples equal, sign bits of zero coordinates included."""
    got = [c.vertices for c in got]
    want = [c.vertices for c in want]
    return got == want and all(
        math.copysign(1.0, a) == math.copysign(1.0, b)
        for g, w in zip(got, want)
        for pg, pw in zip(g, w)
        for a, b in zip(pg, pw)
    )


def _cells_within_an_ulp(got, want) -> bool:
    """The same vertex counts, and every coordinate within an ulp of 2.
    Off the dyadic resolutions, closing a grid cell's bounds can move a
    corner by an ulp where the region's diagonal edge passes through it
    only up to rounding; clipping kept the lattice point."""
    return [len(c.vertices) for c in got] == [len(c.vertices) for c in want] and all(
        abs(a - b) <= math.ulp(2.0)
        for g, w in zip(got, want)
        for pg, pw in zip(g.vertices, w.vertices)
        for a, b in zip(pg, pw)
    )


def _assert_matches_the_per_cell_loop(matrix, loop, resolution, jacobian=1.0):
    """The octagon kernel's Ulam matrix against the per-cell loop's.

    Every row of the kernel sums to 1 within 1e-13.  On the rows that the
    loop sums to 1 within (1e-14 + 2e-16 * resolution**2) / min(jacobian,
    1), every entry agrees with the loop's within that bound: the loop's
    shoelace sums round at the ulp of coordinates near 1, over cells of
    area near 1 / resolution**2, and entries divide image areas by the
    branches' |J|.  The loop's other rows lost slivers to vertex merging
    and EPS_AREA (ROADMAP item 7), and only the kernel's row sums are
    checked there.
    """
    bound = (1e-14 + 2e-16 * resolution**2) / min(jacobian, 1.0)
    rows = np.asarray(matrix.sum(axis=1)).ravel()
    assert np.abs(rows - 1.0).max() <= 1e-13
    sound = np.abs(np.asarray(loop.sum(axis=1)).ravel() - 1.0) <= bound
    diff = sp.diags(sound.astype(float)) @ (matrix - loop)
    assert np.abs(diff.data).max(initial=0.0) <= bound


def _overlay_every_pair(grid, b):
    """_overlay's (k, j, area) triple from measuring every (column, cell)
    pair with the same _close, _area and noise cut, by k and then j."""
    noise = D.NOISE_SHARE / (grid.resolution * grid.resolution)
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    for k in range(b.shape[1]):
        w = geom2d._area(geom2d._close(np.maximum(b[:, k : k + 1], grid.bounds)))
        j = np.flatnonzero(w > noise)
        parts.append((np.full(len(j), k, np.intp), j, w[j]))
    return tuple(np.concatenate(a) for a in zip(*parts))


def _overlay_cases(rng, grid, count=40):
    """Closed octagon columns over the grid's region: random ones; diamonds
    with lattice centres, where only the diagonal bounds bind; both with
    their bounds on lattice lines, and off them by up to a few SNAP /
    resolution or by 1e-6 or 1e-3 / resolution, so that some cut corners
    stand above rounding noise; slivers at most 1e-9 wide across the
    diagonals; and images of grid cells under the tent branches at t = 1,
    whose bounds lie on lattice lines."""
    n = grid.resolution
    centres = rng.uniform((-0.1, -0.1), (2.1, 1.1), size=(count, 1, 2))
    sizes = 10.0 ** rng.uniform(-0.5, 1.5, size=(count, 1, 1)) / n
    points = centres + sizes * rng.normal(size=(count, 6, 2))
    generic = np.array([geom2d._box(p.tolist()) for p in points]).T
    cx, cy = np.round(centres[:, 0].T * n) / n
    r = rng.integers(1, 5, size=count) / n
    diamonds = np.array([cx - 2 * r, cy - 2 * r, cx + cy - r, cx - cy - r,
                         -(cx + 2 * r), -(cy + 2 * r), -(cx + cy + r), -(cx - cy + r)])
    lattice = np.round(np.concatenate([generic, diamonds], axis=1) * n) / n
    offsets = np.array([0.0, 1e-4, 1e-2, 0.5, 0.999, 1.001, 2.0, 1e3, 1e6]) * geom2d.SNAP / n
    signs = rng.choice((-1.0, 1.0), size=lattice.shape)
    near = lattice + signs * rng.choice(offsets, size=lattice.shape)
    slivers = [generic.copy(), generic.copy()]
    for row, sliver in zip((2, 3), slivers):  # across x + y, across x - y
        sliver[row] = np.round(0.5 * (generic[row] - generic[row + 4]) * n) / n
        sliver[row + 4] = -(sliver[row] + rng.choice((0.0, 1e-15, 1e-12, 1e-9), size=count))
    m = tent_power(1.0, 2)
    domains = geom2d._octagons([br.domain for br in m.branches], "branch domain")
    perm, scale, shift = geom2d._image_plan([br.map for br in m.branches])
    branch, cell, _ = _overlay_every_pair(grid, domains)
    pick = rng.choice(len(cell), size=min(count, len(cell)), replace=False)
    i, b = cell[pick], branch[pick]
    piece = geom2d._close(np.maximum(grid.bounds[:, i], domains[:, b]))
    images = scale[:, b] * piece[perm[:, b], np.arange(len(b))] + shift[:, b]
    return geom2d._close(np.concatenate([generic, lattice, near, *slivers, images], axis=1))


class TestOverlayKernel:
    """The octagon kernel against the per-cell loops in ulam_oracle."""

    @pytest.mark.parametrize("pw", [1, 2])
    @pytest.mark.parametrize("t", [TAU, 0.9, 1.0])
    @pytest.mark.parametrize("resolution", [16, 64, 128])
    def test_ulam_matrix_and_grid_match_the_per_cell_loop(self, resolution, t, pw):
        # The lattice is exact at these resolutions: the grid is the loop's
        # bit for bit, and at t = 1 so is the matrix.
        m = tent_power(t, pw)
        op = D.build_ulam(m, resolution)
        grid, matrix = ulam_oracle.build_ulam(m, resolution)
        _assert_matches_the_per_cell_loop(op.matrix, matrix, resolution)
        assert _same_cells(op.grid.cells, grid.cells)
        assert _bits_equal(op.grid.cell_areas, np.array([c.area for c in grid.cells]))
        if t == 1.0:
            assert _bits_equal(op.matrix.data, matrix.data)
            assert _bits_equal(op.matrix.indices, matrix.indices)
            assert _bits_equal(op.matrix.indptr, matrix.indptr)

    @pytest.mark.parametrize("resolution", [3, 5, 24])
    def test_grid_off_the_dyadic_resolutions(self, resolution):
        grid = D.UlamGrid.build(TRIANGLE_T, resolution)
        want = ulam_oracle.Grid(TRIANGLE_T, resolution)
        assert _cells_within_an_ulp(grid.cells, want.cells)
        areas = np.array([c.area for c in want.cells])
        assert np.abs(grid.cell_areas - areas).max() <= 1e-15

    def test_halving_map_matches_the_per_cell_loop(self):
        # p -> (p + centroid) / 2 maps the region into itself, with a
        # linear part that keeps every direction
        cx, cy = geometry_oracle.centroid(TRIANGLE_T)
        halve = AffineMap2(Matrix2(0.5, 0.0, 0.0, 0.5), (0.5 * cx, 0.5 * cy))
        m = PiecewiseMap(TRIANGLE_T, (Branch(TRIANGLE_T, halve, 0.25),))
        for resolution in (5, 11, 16):
            _, matrix = ulam_oracle.build_ulam(m, resolution)
            op = D.build_ulam(m, resolution)
            _assert_matches_the_per_cell_loop(op.matrix, matrix, resolution, jacobian=0.25)

    # (8, 8), (4, 16), (8, 16) and (6, 12) are grid-aligned: every density
    # cell is a union of grid cells, and only touches the cells around it.
    @pytest.mark.parametrize(
        "n, resolution", [(2, 3), (3, 8), (5, 4), (8, 16), (8, 8), (4, 16), (6, 12)]
    )
    def test_project_to_grid_matches_the_per_cell_loop(self, rng, n, resolution):
        # the values are averages near 1; the worst case differs by 3.4e-14
        f = random_grid_density(rng, TRIANGLE_T, n)
        got = D.project_to_grid(f, resolution)
        want = ulam_oracle.project_to_grid(f, resolution)
        assert _cells_within_an_ulp([c for c, _ in got.cells], [c for c, _ in want.cells])
        diff = [abs(v - w) for (_, v), (_, w) in zip(got.cells, want.cells)]
        assert max(diff) <= 1e-13

    def test_project_to_grid_of_a_cesaro_iterate_matches_the_per_cell_loop(self):
        m = make_tent2d(0.93)
        f = D.push_forward(m, D.project_to_grid(D.uniform_density(TRIANGLE_T), 16))
        got = D.project_to_grid(f, 16)
        want = ulam_oracle.project_to_grid(f, 16)
        assert max(abs(v - w) for (_, v), (_, w) in zip(got.cells, want.cells)) <= 1e-13

    def test_project_to_grid_of_an_iterate_near_t1(self):
        # The pushforward near t = 1 has cells of area near EPS_AREA, whose
        # vertices sit at rounding offsets off their octagons.  The loop
        # drops slivers of them: its projection loses 1.0e-10 of the mass,
        # and its worst cell misses the exact rational value by 3.2e-9.
        m = tent_power(0.99999, 2)
        f = D.push_forward(m, D.project_to_grid(D.uniform_density(TRIANGLE_T), 16))
        assert min(poly.area for poly, _ in f.cells) < 1e-10
        got = D.project_to_grid(f, 16)
        assert math.fsum(v * c.area for c, v in got.cells) == pytest.approx(f.mass(), rel=1e-13)
        want = ulam_oracle.project_to_grid(f, 16)
        k = max(range(len(got.cells)), key=lambda k: abs(got.cells[k][1] - want.cells[k][1]))
        column = [Fraction(c) for c in D.UlamGrid.build(TRIANGLE_T, 16).bounds[:, k].tolist()]
        mass = sum(
            Fraction(v) * _area_exact(_clip_exact([tuple(map(Fraction, q)) for q in p.vertices], column))
            for p, v in f.cells
        )
        exact = mass / _area_exact(_clip_exact(_square(column), column))
        assert abs(Fraction(got.cells[k][1]) / exact - 1) <= 1e-13

    def test_project_to_grid_of_zero_density_bit_identical(self):
        f = D.PiecewisePolyDensity(TRIANGLE_T, ((TRIANGLE_T, 0.0),))
        got = D.project_to_grid(f, 8)
        want = ulam_oracle.project_to_grid(f, 8)
        assert _bits_equal([v for _, v in got.cells], [v for _, v in want.cells])

    def test_ulam_with_all_empty_chunks_bit_identical(self):
        # 4096 branches ordered by itinerary: the 2048-pair chunks of cells
        # left of x = 1 meet no branch domain in one of their two halves
        m = tent_power(1.0, 12)
        op = D.build_ulam(m, 2)
        _, matrix = ulam_oracle.build_ulam(m, 2)
        assert _bits_equal(op.matrix.data, matrix.data)
        assert _bits_equal(op.matrix.indices, matrix.indices)
        assert _bits_equal(op.matrix.indptr, matrix.indptr)

    @pytest.mark.parametrize(
        "resolution, pw", [(16, 3), (17, 1), (17, 2), (17, 3), (48, 1), (48, 2), (48, 3), (64, 3)]
    )
    def test_touch_only_squares_at_t1(self, resolution, pw):
        # At t = 1 the images of grid squares share their edges with grid
        # lines (at the even resolutions), so many squares of an image's
        # row spans only touch it, and the kernel measures them at area 0.
        # Resolutions 16 and 64 at powers 1 and 2 are in the first test.
        m = tent_power(1.0, pw)
        _, matrix = ulam_oracle.build_ulam(m, resolution)
        _assert_matches_the_per_cell_loop(D.build_ulam(m, resolution).matrix, matrix, resolution)

    @pytest.mark.parametrize("resolution", [24, 41])
    @pytest.mark.parametrize("pw", [1, 2, 3])
    @pytest.mark.parametrize("t", [TAU, 0.939, 0.99999, 0.9999999987175887])
    def test_ulam_where_slivers_are_thin(self, t, pw, resolution):
        # Near t = 1 cells meet branch domains and images meet squares in
        # slivers across diagonal lines; 1 - 1.3e-9 is the pinned case where
        # they are thinnest.  There the loop's rows miss 1 by up to 1.0e-7.
        m = tent_power(t, pw)
        _, matrix = ulam_oracle.build_ulam(m, resolution)
        _assert_matches_the_per_cell_loop(D.build_ulam(m, resolution).matrix, matrix, resolution)

    def test_sparsity_pattern_matches_the_per_cell_loop(self):
        # Bounds that cross by an ulp in two directions overlap in 3.8e-29,
        # rounding noise that the kernel drops like the loop does.
        for resolution in (64, 128):
            m = tent_power(0.9, 2)
            op = D.build_ulam(m, resolution)
            _, matrix = ulam_oracle.build_ulam(m, resolution)
            assert _bits_equal(op.matrix.indices, matrix.indices)
            assert _bits_equal(op.matrix.indptr, matrix.indptr)

    @pytest.mark.parametrize("resolution", [3, 16, 17, 128])
    def test_overlay_matches_measuring_every_pair(self, rng, resolution):
        # The row spans leave out only squares that meet an octagon in
        # area 0: every pair that measuring all of them keeps is found.
        grid = D.UlamGrid.build(TRIANGLE_T, resolution)
        b = _overlay_cases(rng, grid)
        got = D._joined(D._overlay(grid, b))
        want = _overlay_every_pair(grid, b)
        assert len(want[0]) > 0
        for g, w in zip(got, want):
            assert _bits_equal(g, w)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_chunk_size_does_not_change_results(self, monkeypatch, rng, chunk):
        # short last chunks, chunks of one pair, chunks that split a row
        m = tent_power(0.9, 2)
        f = random_grid_density(rng, TRIANGLE_T, 5)
        want_op = D.build_ulam(m, 8)
        want_f = D.project_to_grid(f, 6)
        monkeypatch.setattr(D, "OVERLAY_CHUNK", chunk)
        op = D.build_ulam(m, 8)
        assert _bits_equal(op.matrix.data, want_op.matrix.data)
        assert _bits_equal(op.matrix.indices, want_op.matrix.indices)
        assert _bits_equal(op.matrix.indptr, want_op.matrix.indptr)
        assert _same_cells(op.grid.cells, want_op.grid.cells)
        got_f = D.project_to_grid(f, 6)
        assert _bits_equal([v for _, v in got_f.cells], [v for _, v in want_f.cells])

    @pytest.mark.parametrize("resolution", [3, 16, 128])
    def test_vertex_batch_bit_identical_to_one_batch(self, monkeypatch, resolution):
        # the batch is derived OVERLAY_CHUNK cells at a time
        grid = D.UlamGrid.build(TRIANGLE_T, resolution)
        monkeypatch.setattr(D, "OVERLAY_CHUNK", 7)
        for got, want in zip(grid.polys, geom2d._vertices(grid.bounds)):
            assert _bits_equal(got, want)

    @pytest.mark.parametrize("resolution", [3, 16, 128])
    def test_centroids_bit_identical(self, resolution):
        grid = D.UlamGrid.build(TRIANGLE_T, resolution)
        want = np.array([geometry_oracle.centroid(c) for c in grid.cells])
        cx, cy = geom2d._centroids(*grid.polys, grid.cell_areas)
        assert _bits_equal(cx, want[:, 0])
        assert _bits_equal(cy, want[:, 1])

    def test_python_heap_peak_not_above_per_cell_loop(self):
        m = tent_power(0.9, 1)
        D.build_ulam(m, 16)  # first-call imports stay out of the peaks
        ulam_oracle.build_ulam(m, 16)
        peaks = []
        for build in (D.build_ulam, ulam_oracle.build_ulam):
            tracemalloc.start()
            try:
                build(m, 128)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        kernel, oracle = peaks
        assert kernel <= oracle, f"kernel {kernel / 1e6:.1f} MB > oracle {oracle / 1e6:.1f} MB"


# The forms of a _box column, whose lower bounds its rows hold.
_FORMS = ((1, 0), (0, 1), (1, 1), (1, -1), (-1, 0), (0, -1), (-1, -1), (-1, 1))


def _clip_exact(poly, column):
    """A polygon of Fraction vertices clipped to the octagon of a _box
    column of Fractions, by Sutherland-Hodgman in exact arithmetic."""
    for (a, b), c in zip(_FORMS, column):
        out = []
        for k, (px, py) in enumerate(poly):
            qx, qy = poly[k - 1]
            dp, dq = a * px + b * py - c, a * qx + b * qy - c
            if (dp >= 0) != (dq >= 0):
                s = dq / (dq - dp)
                out.append((qx + s * (px - qx), qy + s * (py - qy)))
            if dp >= 0:
                out.append((px, py))
        poly = out
    return poly


def _square(column):
    """The corners of the bounding box of a _box column."""
    return [(column[0], column[1]), (-column[4], column[1]), (-column[4], -column[5]), (column[0], -column[5])]


def _area_exact(poly):
    pairs = zip(poly, poly[1:] + poly[:1])
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in pairs)) / 2


def _exact_ulam_entries(m, op) -> dict:
    """Entry (i, j) of every stored entry of op.matrix in exact rational
    arithmetic, from the same float inputs as build_ulam: the grid's cell
    bounds, the _box columns of the branch domains, and the branch maps."""
    F = Fraction
    cells = [[F(v) for v in column] for column in op.grid.bounds.T.tolist()]
    domains = [[F(v) for v in D._box(br.domain.vertices)] for br in m.branches]
    indptr, indices = op.matrix.indptr, op.matrix.indices
    exact = {}
    for i, cell in enumerate(cells):
        box_i = _square(cell)
        images = []
        for br, domain in zip(m.branches, domains):
            piece = _clip_exact(box_i, [max(p, q) for p, q in zip(cell, domain)])
            (a, b, c, d), (sx, sy) = (map(F, br.map.linear), map(F, br.map.shift))
            image = [(a * x + b * y + sx, c * x + d * y + sy) for x, y in piece]
            images.append((image, F(br.jacobian_abs)))
        area_i = _area_exact(_clip_exact(box_i, cell))
        for j in indices[indptr[i] : indptr[i + 1]].tolist():
            overlap = sum(
                _area_exact(_clip_exact(image, cells[j])) / jac for image, jac in images if image
            )
            exact[i, j] = overlap / area_i
    return exact


@pytest.mark.parametrize("pw", [1, 2])
@pytest.mark.parametrize("t", [0.95, TAU])
def test_ulam_entries_match_exact_rational_areas(t, pw):
    """Every entry is within 1e-12 relative of its value in exact rational
    arithmetic from the same float inputs.  The worst is 2.2e-13; clipping
    (ulam_oracle.build_ulam) misses by 4.8e-12 to 3.4e-11 here, where its
    shoelace sums lose precision on thin overlaps."""
    m = tent_power(t, pw)
    op = D.build_ulam(m, 16)
    exact = _exact_ulam_entries(m, op)
    coo = op.matrix.tocoo()
    for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        assert abs(Fraction(v) / exact[i, j] - 1) <= 1e-12, (i, j)


def test_ulam_entries_near_t1_match_exact_rational_areas():
    """Near t = 1 the kernel keeps the slivers that clipping drops.  Every
    entry is within 1e-14 of its exact rational value (the worst misses by
    3.9e-15), where the loop misses by 5.0e-11: it drops 9 entries near
    5e-11, as the overlap of area 9.99992e-13 in row 92.  Relative to
    themselves such entries carry up to 2.3e-10 of rounding, as the
    closed-form area subtracts corner triangles from a box."""
    m = tent_power(0.99999, 1)
    op = D.build_ulam(m, 10)
    _, matrix = ulam_oracle.build_ulam(m, 10)
    exact = _exact_ulam_entries(m, op)
    coo = op.matrix.tocoo()
    for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        assert abs(Fraction(v) - exact[i, j]) <= 1e-14, (i, j)
    kept = op.matrix - matrix
    assert op.matrix.nnz - matrix.nnz == 9
    assert kept[92].max() == pytest.approx(5.0001e-11, rel=1e-4)


class TestOctilinear:
    """The Ulam layer takes octagons only, and says so before it allocates."""

    def test_random_regions_are_rejected(self, rng):
        for _ in range(3):
            region = random_convex_polygon(rng)
            with pytest.raises(NotOctilinear, match="region 0 has edges off"):
                D.UlamGrid.build(region, 4)

    def test_an_off_lattice_quad_is_rejected_before_the_grid_budget(self):
        # the budget check would raise CellExplosion at this resolution
        with pytest.raises(NotOctilinear, match="region"):
            D.UlamGrid.build(OFF_LATTICE_QUAD, 100000)

    def test_the_halving_map_on_a_random_region_is_rejected(self, rng):
        region = random_convex_polygon(rng)
        cx, cy = geometry_oracle.centroid(region)
        halve = AffineMap2(Matrix2(0.5, 0.0, 0.0, 0.5), (0.5 * cx, 0.5 * cy))
        m = PiecewiseMap(region, (Branch(region, halve, 0.25),))
        with pytest.raises(NotOctilinear, match="branch domain 0"):
            D.build_ulam(m, 5)

    def test_the_fold_is_rejected(self):
        # the unit square folded at x = 1/2: diag(2, -1) sends x + y to
        # 2x - y, which is none of the four directions
        flip_y = AffineMap2(Matrix2(2.0, 0.0, 0.0, -1.0), (0.0, 1.0))
        flip_x = AffineMap2(Matrix2(-2.0, 0.0, 0.0, 1.0), (2.0, 0.0))
        branches = (
            Branch(box(0.0, 0.0, 0.5, 1.0), flip_y, 2.0),
            Branch(box(0.5, 0.0, 1.0, 1.0), flip_x, 2.0),
        )
        m = PiecewiseMap(box(0.0, 0.0, 1.0, 1.0), branches)
        with pytest.raises(NotOctilinear, match="linear part"):
            D.build_ulam(m, 8)

    def test_a_tilted_density_cell_is_rejected(self):
        tilted = ConvexPolygon(((0.5, 0.1), (0.9, 0.2), (0.6, 0.4)))
        f = D.indicator_density(TRIANGLE_T, tilted, 1.0)
        with pytest.raises(NotOctilinear, match="density cell"):
            D.project_to_grid(f, 8)

    @pytest.mark.parametrize("t", [TAU, 0.9, 1.0])
    def test_tent_powers_pass(self, t):
        # the domains use at most 6.6e-8 of their allowance here; a scan of
        # 501 t values at powers 1 to 8 reached 16% of it near t = 1
        for k in range(1, 9):
            op = D.build_ulam(tent_power(t, k), 2)
            rows = np.asarray(op.matrix.sum(axis=1)).ravel()
            assert np.abs(rows - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("pw, gaps", [(3, 0.0), (4, 0.0), (5, 6.41e-10)])
    def test_domains_that_power_merged_vertices_of_pass(self, pw, gaps):
        # Near t = 1 maps.power's clipping used to merge vertices of the
        # domains away and leave gaps along the region's edges, 3.2e-10 at
        # power 4.  The octagon pullback tiles the region, and at powers 3
        # and 4 every row sums to 1.  At power 5 geom2d._vertices leaves out
        # axis edges shorter than EPS_GEOM, and the domains' octagons miss
        # the area given (ROADMAP item 9): each row sums to the share of
        # its cell that they cover.
        m = tent_power(0.9999999987175887, pw)
        domains = geom2d._octagons([br.domain for br in m.branches], "branch domain")
        op = D.build_ulam(m, 24)
        grid = op.grid
        covered = sum(
            geom2d._area(geom2d._close(np.maximum(grid.bounds, d[:, None]))) for d in domains.T
        )
        covered = covered / grid.cell_areas
        rows = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.abs(rows - covered).max() <= 1e-13
        if not gaps:
            assert np.abs(rows - 1.0).max() <= 1e-13
        assert m.region.area - geom2d._area(domains).sum() == pytest.approx(gaps, rel=0.01, abs=1e-15)
        assert (1.0 - covered) @ grid.cell_areas == pytest.approx(gaps, rel=0.01, abs=1e-15)

    @pytest.mark.parametrize("resolution", [24, 41])
    @pytest.mark.parametrize("pw", [4, 6])
    def test_rows_near_t1(self, pw, resolution):
        # clipping's domains left rows short by up to 8.0e-8 here
        op = D.build_ulam(tent_power(0.9999999987175887, pw), resolution)
        rows = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.abs(rows - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("resolution", [4.5, 4.0, True, "8"])
    def test_resolution_must_be_an_integer(self, resolution):
        # 4.5 built a 25-cell grid
        with pytest.raises(ParameterOutOfRange, match="resolution must be an integer >= 2"):
            D.build_ulam(make_tent2d(0.9), resolution)
        with pytest.raises(ParameterOutOfRange, match="coarsen must be an integer >= 2"):
            D.cesaro_fixed_density(make_tent2d(0.9), D.uniform_density(TRIANGLE_T), coarsen=resolution)

    def test_not_octilinear_is_a_package_error(self):
        # so the CLI reports it and exits 1
        assert issubclass(NotOctilinear, Error)


def _shifted_square_map(shift: float) -> PiecewiseMap:
    """The unit square translated right by shift: the image leaves the
    region, losing area shift / 2 from each right-column cell at res 2."""
    square = box(0.0, 0.0, 1.0, 1.0)
    branch = Branch(square, AffineMap2(Matrix2(1.0, 0.0, 0.0, 1.0), (shift, 0.0)), 1.0)
    return PiecewiseMap(square, (branch,))


class TestLostArea:
    def test_image_leaving_the_grid_raises(self):
        m = _shifted_square_map(4e-9)  # lost area 2e-9 per right-column cell
        with pytest.raises(ResolutionTooLow, match=r"cell 1 maps outside .* 2e-09"):
            D.build_ulam(m, 2)
        with pytest.raises(ResolutionTooLow, match=r"cell 1 maps outside .* 2e-09"):
            ulam_oracle.build_ulam(m, 2)

    def test_threshold_is_1e_minus_9(self):
        # Lost area 5e-10 per right-column cell: kept.  Each left-column
        # cell's image reaches 1e-9 into its right neighbour, a sliver that
        # the loop merges away and the kernel keeps.
        m = _shifted_square_map(1e-9)
        op = D.build_ulam(m, 2)
        _, matrix = ulam_oracle.build_ulam(m, 2)
        spill = op.matrix - matrix
        assert np.abs(spill.data).max() == pytest.approx(2e-9, rel=1e-6)
        rows = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert rows == pytest.approx([1.0, 1.0 - 2e-9, 1.0, 1.0 - 2e-9], abs=1e-15)


@given(
    t=st.floats(min_value=TENT_T_MIN, max_value=1.0),
    pw=st.integers(min_value=1, max_value=2),
    resolution=st.integers(min_value=4, max_value=24),
)
@example(t=TENT_T_MIN, pw=1, resolution=4)
@example(t=1.0, pw=2, resolution=24)
@example(t=0.99999, pw=1, resolution=10)  # clipping dropped a 9.99992e-13 overlap from row 92
@example(t=0.9999999987175887, pw=2, resolution=24)  # and lost 3.1e-8 of row 467 to a merge
@settings(max_examples=60, deadline=None)
def test_ulam_rows_are_probability_vectors(t, pw, resolution):
    """Entries are positive, no row is empty, and rows sum to 1 within
    1e-13."""
    op = D.build_ulam(tent_power(t, pw), resolution)
    assert np.abs(np.asarray(op.matrix.sum(axis=1)).ravel() - 1.0).max() <= 1e-13
    assert (op.matrix.data > 0.0).all()
    assert (np.diff(op.matrix.indptr) > 0).all()


@given(
    t=st.floats(min_value=TENT_T_MIN, max_value=1.0),
    pw=st.integers(min_value=1, max_value=2),
    resolution=st.integers(min_value=2, max_value=5),
    values=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=40),
)
@example(t=0.9999999987175887, pw=2, resolution=5, values=[0.0, 1.0, 2.0])
@settings(max_examples=40, deadline=None)
def test_push_forward_conserves_mass_and_sign(t, pw, resolution, values):
    """The exact pushforward of a nonnegative grid density (values cycled
    over the cells) keeps its mass to a relative 1e-9 and has no negative
    value.  The worst of 408 seeded random cases lost 2.7e-11 of its mass,
    in slivers that clipping merges or drops."""
    grid = D.UlamGrid.build(TRIANGLE_T, resolution)
    cells = tuple((poly, values[k % len(values)]) for k, poly in enumerate(grid.cells))
    f = D.PiecewisePolyDensity(TRIANGLE_T, cells)
    out = D.push_forward(tent_power(t, pw), f)
    assert abs(out.mass() - f.mass()) <= 1e-9 * f.mass()
    assert all(v >= 0.0 for _, v in out.cells)
    assert not out.signed


@given(
    t=st.floats(min_value=TENT_T_MIN, max_value=1.0),
    pw=st.integers(min_value=1, max_value=2),
    resolution=st.integers(min_value=4, max_value=12),
)
@settings(max_examples=25, deadline=None)
def test_ulam_fixed_density_is_a_probability_density(t, pw, resolution):
    """Nonnegative cell values whose area-weighted sum is 1 to 1e-12."""
    op = D.build_ulam(tent_power(t, pw), resolution)
    vec = D.ulam_fixed(op)
    assert (vec.values >= 0.0).all()
    assert abs(float(vec.values @ op.grid.cell_areas) - 1.0) <= 1e-12


def test_refine_stops_at_the_cell_budget(monkeypatch):
    # An interior triangle cuts the region into itself and three outside
    # pieces.
    inner = ConvexPolygon(((0.9, 0.1), (1.1, 0.1), (1.0, 0.3)))
    monkeypatch.setattr(D, "MAX_CELLS", 3)
    with pytest.raises(CellExplosion, match="exceeded 3 cells"):
        D.indicator_density(TRIANGLE_T, inner, 1.0)
    monkeypatch.setattr(D, "MAX_CELLS", 4)
    assert len(D.indicator_density(TRIANGLE_T, inner, 1.0).cells) == 4


def test_build_ulam_rejects_a_singular_branch():
    flat = AffineMap2(Matrix2(1.0, 1.0, 1.0, 1.0), (0.0, 0.0))
    m = PiecewiseMap(TRIANGLE_T, (Branch(TRIANGLE_T, flat, 0.0),))
    with pytest.raises(SingularMatrix, match="not a bijection"):
        D.build_ulam(m, 4)


def test_push_forward_rejects_a_singular_branch():
    # It divided by the branch's jacobian_abs first, raising ZeroDivisionError.
    flat = AffineMap2(Matrix2(1.0, 1.0, 1.0, 1.0), (0.0, 0.0))
    m = PiecewiseMap(TRIANGLE_T, (Branch(TRIANGLE_T, flat, 0.0),))
    with pytest.raises(SingularMatrix, match="not a bijection"):
        D.push_forward(m, D.uniform_density(TRIANGLE_T))


def test_stationary_masses_stops_at_max_iter_before_any_plateau():
    # A swap never converges, and max_iter ends the run before the plateau
    # test (from iteration 400) can switch to Cesaro averaging.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    p, iters, residual, converged = D.stationary_masses(swap, np.array([1.0, 0.0]), max_iter=10)
    assert (p.tolist(), iters, residual, converged) == ([1.0, 0.0], 10, 2.0, False)


def test_stationary_masses_takes_a_nested_list_as_a_dense_matrix(monkeypatch):
    rows = [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [1.0, 0.0, 0.0]]

    def solve(transition):
        p, iters, residual, converged = D.stationary_masses(transition, np.full(3, 1.0 / 3.0))
        return p.tobytes(), iters, residual, converged

    dense = solve(np.array(rows))
    assert solve(rows) == dense
    # without scipy.sparse loaded, the list still takes the dense branch,
    # and the call does not load the module
    monkeypatch.delitem(sys.modules, "scipy.sparse")
    assert solve(rows) == dense
    assert "scipy.sparse" not in sys.modules
    p = np.frombuffer(dense[0])
    assert dense[3] and np.allclose(p, [0.5, 1.0 / 3.0, 1.0 / 6.0], atol=1e-8)


def test_grid_budget_checked_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CellExplosion, match="resolution 100000 needs 20000000000"):
            D.UlamGrid.build(TRIANGLE_T, 100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_grid_builds_its_polygons_on_first_read():
    op = D.build_ulam(tent_power(0.9, 2), 8)
    assert "cells" not in vars(op.grid)
    cells = op.grid.cells
    assert op.grid.cells is cells
    assert len(cells) == len(op.grid.cell_areas) == op.matrix.shape[0]


def test_grid_moments_of_the_uniform_density():
    grid = D.UlamGrid.build(TRIANGLE_T, 8)
    ones = np.ones(len(grid.cells))
    moments = grid.moments(ones)
    assert sorted(moments) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert moments[(0, 0)] == pytest.approx(1.0, abs=1e-14)
    assert moments[(1, 0)] == pytest.approx(1.0, abs=1e-14)  # centroid x = 1


def _cells_digest(f) -> str:
    """SHA-256 (first 20 hex digits) of float.hex of every vertex
    coordinate and value of f, cell by cell."""
    h = hashlib.sha256()
    for poly, v in f.cells:
        h.update(" ".join(float.hex(c) for p in poly.vertices for c in p).encode())
        h.update(f" {float.hex(v)}\n".encode())
    return h.hexdigest()[:20]


# Every consumer of the overlay refinement (_refine), pinned bit for bit.
# (t, power, f0) -> for the pushforward iterates f_j, j = 1, 2, 3, of f0:
# cell count, _cells_digest(f_j), variation(f_j), l1_distance(f_j, f_{j-1})
# and _cells_digest(add_scaled(f_j, 0.75, f_{j-1}, -0.5)).  f0 is uniform
# or 2 on LEFT_HALF (indicator_density), as lycheck's --f0 choices.  At
# t = 0.999999 and 1 - 1.3e-9 many cells lie inside a tile only up to
# rounding.
REFINE_PINS = {
    (TAU, 1, "uniform"): (
        (2, '5da816499f7bcdc3eade', '0x1.5e9887884a91ap+2', '0x1.c8ef79b0a8ffcp-2', '631642f027ed9bd76772'),
        (4, '6487bff78696077c21fe', '0x1.7e17688153a00p+2', '0x1.56406b8f6acd2p-2', '6b7cc418bc33d46858c6'),
        (7, 'faa3d7c917ef958711f6', '0x1.a2881d0b53cdep+2', '0x1.56406b8f6acd0p-2', 'bdff6b1e038edd0a1940'),
    ),
    (TAU, 1, "lefthalf"): (
        (2, '5da816499f7bcdc3eade', '0x1.5e9887884a91ap+2', '0x1.7f7eeec6e4483p-1', '4915f8eaf3ba9d4f3c45'),
        (4, '6487bff78696077c21fe', '0x1.7e17688153a00p+2', '0x1.56406b8f6acd2p-2', '6b7cc418bc33d46858c6'),
        (7, 'faa3d7c917ef958711f6', '0x1.a2881d0b53cdep+2', '0x1.56406b8f6acd0p-2', 'bdff6b1e038edd0a1940'),
    ),
    (TAU, 2, "uniform"): (
        (4, '10e1cbd603c3e6ce8b52', '0x1.7e176881539fep+2', '0x1.30123d08a2aa0p-1', '37d1e65de9fba288a25b'),
        (14, '9f19bbcdf07a79439520', '0x1.d18c9cc08cd70p+2', '0x1.7cc89f36fe55ep-2', '82578eef4ae3cb3273ca'),
        (39, '89b9f7577389e50f87cc', '0x1.1d366e1fd9e95p+3', '0x1.2cfcfb0bf59e7p-2', '03fe0b31feb2ae217b26'),
    ),
    (TAU, 2, "lefthalf"): (
        (4, '10e1cbd603c3e6ce8b52', '0x1.7e176881539fep+2', '0x1.665a5fd574dafp-1', '5000761fbcfd9f2319d1'),
        (14, '9f19bbcdf07a79439520', '0x1.d18c9cc08cd70p+2', '0x1.7cc89f36fe55ep-2', '82578eef4ae3cb3273ca'),
        (39, '89b9f7577389e50f87cc', '0x1.1d366e1fd9e95p+3', '0x1.2cfcfb0bf59e7p-2', '03fe0b31feb2ae217b26'),
    ),
    (TAU, 3, "uniform"): (
        (7, 'fdf32a9f5df76d9e853e', '0x1.a2881d0b53cdbp+2', '0x1.2fe6657f7703ep-1', 'b9d4c2bb50208631488e'),
        (35, 'a5140a3e63f3bb3e407f', '0x1.1d366e1fd9ea8p+3', '0x1.d491ce5aa0dcap-2', 'fdbdf13c8715ab22809c'),
        (140, 'd2a241caf8e750376168', '0x1.5ed81d677f8c5p+3', '0x1.33e022b9f1883p-2', '413e0ef926ff7d167fc0'),
    ),
    (TAU, 3, "lefthalf"): (
        (7, '5c1505da0b889254e978', '0x1.a2881d0b53cdbp+2', '0x1.d4ae75ff1ab23p-1', '9986931788063817d1e8'),
        (35, '6c3c79a9a80270c912bd', '0x1.1d366e1fd9ea8p+3', '0x1.d491ce5aa0dcap-2', '887f29d1469f750c183c'),
        (140, '6c519e8dd47e39e062eb', '0x1.5ed81d677f8c5p+3', '0x1.33e022b9f1885p-2', 'c9f12e31edc59ba129a8'),
    ),
    (0.9, 1, "uniform"): (
        (2, 'e1c0ba867e4b0607f9f9', '0x1.575ad55632139p+2', '0x1.851eb851eb850p-2', '6b8517d21edeb7131956'),
        (4, 'e25343db922e2fa377da', '0x1.7116fa8f7a6e6p+2', '0x1.3373ed4a35594p-2', '78ec3333108237ac9275'),
        (7, '882336ceb7ae74658d9e', '0x1.8ecff525ea23cp+2', '0x1.3373ed4a35594p-2', 'cd753e0e04b69ca530db'),
    ),
    (0.9, 1, "lefthalf"): (
        (2, 'e1c0ba867e4b0607f9f9', '0x1.575ad55632139p+2', '0x1.948b0fcd6e9e1p-1', '3422fc99fd3195d185ac'),
        (4, 'e25343db922e2fa377da', '0x1.7116fa8f7a6e6p+2', '0x1.3373ed4a35594p-2', '78ec3333108237ac9275'),
        (7, '882336ceb7ae74658d9e', '0x1.8ecff525ea23cp+2', '0x1.3373ed4a35594p-2', 'cd753e0e04b69ca530db'),
    ),
    (0.9, 2, "uniform"): (
        (4, '8d841f901c768863f431', '0x1.7116fa8f7a6e6p+2', '0x1.163eac81e0ebcp-1', 'd293e54698bddf7bff99'),
        (14, '8048758fba20df2d8420', '0x1.b3f5aea853b23p+2', '0x1.728d235288ef1p-2', '21bd1b023e9c1a2db79f'),
        (39, 'e8187da263f24e3d2e9c', '0x1.028edeb99facfp+3', '0x1.19d675913f12cp-2', '0c24c8fdbc2dadaceef6'),
    ),
    (0.9, 2, "lefthalf"): (
        (4, '8d841f901c768863f431', '0x1.7116fa8f7a6e6p+2', '0x1.83101d5784b3ap-1', '4219713eb9ebc9e78846'),
        (14, '8048758fba20df2d8420', '0x1.b3f5aea853b23p+2', '0x1.728d235288ef1p-2', '21bd1b023e9c1a2db79f'),
        (39, 'e8187da263f24e3d2e9c', '0x1.028edeb99facfp+3', '0x1.19d675913f12cp-2', '0c24c8fdbc2dadaceef6'),
    ),
    (0.9, 3, "uniform"): (
        (7, '2f77ded417785377e3c5', '0x1.8ecff525ea23cp+2', '0x1.191c5f8ca5808p-1', 'f057209eea613632c290'),
        (35, 'dc9af71758fe6af3e685', '0x1.028edeb99faa4p+3', '0x1.aecd88dea4e9ep-2', 'ac83cf7b22d6bed7b499'),
        (130, '9ba1fe59c1a068200859', '0x1.3ce643a120c28p+3', '0x1.0c7219181b98ap-2', '437f998be1d233ef0539'),
    ),
    (0.9, 3, "lefthalf"): (
        (7, '56d76dd71bce10afadbb', '0x1.8ecff525ea23cp+2', '0x1.da26f0be68f57p-1', '9abbb4ed7c93f833939a'),
        (35, '7416b870eb8b89b48365', '0x1.028edeb99faafp+3', '0x1.aecd88dea4e9fp-2', '6ba8b3377fe10e0b531e'),
        (125, '37c5e86d273436236d88', '0x1.3ce643a120d69p+3', '0x1.0c7219181b98dp-2', '2683ad4194fbff071dc9'),
    ),
    (0.9627, 1, "uniform"): (
        (2, '905576a0d2caafb63ee9', '0x1.40fe0ab16deaep+2', '0x1.2bdce573b7b28p-3', '26eb017787d0fdaae61b'),
        (4, '87f007744ead1143ff8a', '0x1.49a53b74dcd4ep+2', '0x1.151397d7709f1p-3', 'ac467dc498ef95a4a0d1'),
        (7, '7796533f99b63e1124e9', '0x1.537c70e3e5686p+2', '0x1.151397d7709f2p-3', '67bf97d96efe36601d0f'),
    ),
    (0.9627, 1, "lefthalf"): (
        (2, '905576a0d2caafb63ee9', '0x1.40fe0ab16deaep+2', '0x1.d917f18232964p-1', '7ec087d558a5c0dba32f'),
        (4, '87f007744ead1143ff8a', '0x1.49a53b74dcd4ep+2', '0x1.151397d7709f1p-3', 'ac467dc498ef95a4a0d1'),
        (7, '7796533f99b63e1124e9', '0x1.537c70e3e5686p+2', '0x1.151397d7709f2p-3', '67bf97d96efe36601d0f'),
    ),
    (0.9627, 2, "uniform"): (
        (4, '1dc3ead785962d56c879', '0x1.49a53b74dcd50p+2', '0x1.0aef301b3985dp-2', '46542ea110050d9ed767'),
        (14, '5cd481cce77f99f4173e', '0x1.5ea4ffbfe3ac7p+2', '0x1.c4db89186a150p-3', '20a281514d8b55658911'),
        (38, 'c97ccc6592adf84e5a2f', '0x1.756f3b9bc92cap+2', '0x1.48df5bcb288c4p-3', '7092f3f47e3c39350b7e'),
    ),
    (0.9627, 2, "lefthalf"): (
        (4, '50b8e23fa32ef13068ac', '0x1.49a53b74dcd50p+2', '0x1.d6d931afbcf14p-1', 'a13188d2a574fad28364'),
        (14, 'fee640ed1cd1024afad1', '0x1.5ea4ffbfe3ac7p+2', '0x1.c4db89186a158p-3', 'b826a5fd250874d31716'),
        (39, '0132130e44979c5cc54d', '0x1.756f3b9bc929dp+2', '0x1.48df5bcb288cep-3', 'b04c6c666a629be9c4c3'),
    ),
    (0.9627, 3, "uniform"): (
        (7, 'cc31ccfe41a815a432db', '0x1.537c70e3e5688p+2', '0x1.624a5b6ac820ap-2', '0f1525b4260c69d18c4f'),
        (33, '0474b9157d3e71e861b1', '0x1.756f3b9bc9346p+2', '0x1.06ca80cddd53bp-2', '06d5b8edfed2ad084a91'),
        (102, '4b301cca163c6e26369f', '0x1.958f118788ff1p+2', '0x1.2abb5f5a13366p-3', '40a11ab7132c826473b4'),
    ),
    (0.9627, 3, "lefthalf"): (
        (7, '33607b0cb5e0aef8b624', '0x1.537c70e3e5687p+2', '0x1.fb63b61c60cb3p-1', '286583d080130ef52a7f'),
        (33, '5b0077c3f39f53a0baeb', '0x1.756f3b9bc9346p+2', '0x1.06ca80cddd53bp-2', 'd15bb1e328298bcd525f'),
        (102, 'e022958777d140623c12', '0x1.958f118788ff1p+2', '0x1.2abb5f5a13366p-3', '5d3cc233f702ffa4f2a4'),
    ),
    (0.999999, 1, 'uniform'): (
        (2, 'e844012cd7554f06bfb3', '0x1.3505077477234p+2', '0x1.0c6f713fc557ap-18', 'dec910dbadbf9cde20e9'),
        (4, '042672195bb3ae685373', '0x1.350515c67480fp+2', '0x1.0c6f4e108bbeep-18', 'a8498eb71d2fbb6714ef'),
        (7, '899e0e6cb5585df6e7e4', '0x1.350525d534a4cp+2', '0x1.0c6f4e10b7f3cp-18', '6b89112b4cecec06b1ae'),
    ),
    (0.999999, 1, 'lefthalf'): (
        (2, 'e844012cd7554f06bfb3', '0x1.3505077477234p+2', '0x1.ffffbce41ae44p-1', '92cf5d028066caf3bd69'),
        (4, '042672195bb3ae685373', '0x1.350515c67480fp+2', '0x1.0c6f4e108bbeep-18', 'a8498eb71d2fbb6714ef'),
        (7, '899e0e6cb5585df6e7e4', '0x1.350525d534a4cp+2', '0x1.0c6f4e10b7f3cp-18', '6b89112b4cecec06b1ae'),
    ),
    (0.999999, 2, 'uniform'): (
        (4, '6634d14cd892e8af7b11', '0x1.350515c674810p+2', '0x1.0c6f3c79352b4p-17', '76dfb79de68a004d5016'),
        (11, '0e084031d479dfbb314b', '0x1.350534273e332p+2', '0x1.0c6e747f61f10p-17', '6b2481137e8502aeb39f'),
        (33, '0637f03805851083bfcc', '0x1.3505b65bb7d5ap+2', '0x1.0c6e20191338bp-17', 'b3c072bdf1ab4bb3fd3c'),
    ),
    (0.999999, 2, 'lefthalf'): (
        (4, '6634d14cd892e8af7b11', '0x1.350515c674810p+2', '0x1.ffffbce4144b4p-1', '915ce892225bf466242a'),
        (11, '0e084031d479dfbb314b', '0x1.350534273e332p+2', '0x1.0c6e747f61f10p-17', '6b2481137e8502aeb39f'),
        (33, '0637f03805851083bfcc', '0x1.3505b65bb7d5ap+2', '0x1.0c6e20191338bp-17', 'b3c072bdf1ab4bb3fd3c'),
    ),
    (0.999999, 3, 'uniform'): (
        (7, 'c948567903ad0838cd6b', '0x1.350525d534a4ap+2', '0x1.92a68b8b6651ap-17', '485374e73f754caf0dd2'),
        (29, '225b6ba949131f5bfc9d', '0x1.3505b150368a6p+2', '0x1.92a56968e3b01p-17', 'bb7194bc3fd6d6f6ebcf'),
        (88, '55e453dca8f9c3473108', '0x1.3508735736266p+2', '0x1.92a1ceed80ab4p-17', '9f10b6c6bde07e67964b'),
    ),
    (0.999999, 3, 'lefthalf'): (
        (7, '1ca2de79d3923fe2f111', '0x1.350525d534a4ap+2', '0x1.ffffffffee682p-1', '47063e1341d1d79e2bca'),
        (29, '1ba9a852c6f6cafbe33f', '0x1.3505b150368a6p+2', '0x1.92a56968e3b03p-17', 'fb1e48ad197a38fd1854'),
        (88, '13c0a43e3526d3d7585b', '0x1.3508735736266p+2', '0x1.92a1ceed80ab4p-17', '5799e5ebf46905fac84a'),
    ),
    (0.9999999987175887, 1, 'uniform'): (
        (2, '8ccd515c1aabf4ab07ab', '0x1.3504f33a9febbp+2', '0x1.6081abf86a6cap-28', 'cc3fd30eb4eb4aeed248'),
        (3, 'ed150a067d00c9ad0e21', '0x1.3504f33f53741p+2', '0x1.6081abdfc44d8p-28', '5ccad5e120c0f83b80f9'),
        (4, '07135c7bc5c1957026bc', '0x1.3504f349de8b6p+2', '0x1.6081ab802561ap-28', '6e05e811f9f394a2fb76'),
    ),
    (0.9999999987175887, 1, 'lefthalf'): (
        (2, '8ccd515c1aabf4ab07ab', '0x1.3504f33a9febbp+2', '0x1.ffffffe9f7e54p-1', 'e0b4020b8a0e0f603670'),
        (3, 'ed150a067d00c9ad0e21', '0x1.3504f33f53741p+2', '0x1.6081abdfc44d8p-28', '5ccad5e120c0f83b80f9'),
        (4, '07135c7bc5c1957026bc', '0x1.3504f349de8b6p+2', '0x1.6081ab802561ap-28', '6e05e811f9f394a2fb76'),
    ),
    (0.9999999987175887, 2, 'uniform'): (
        (3, '009546b4881bb4986084', '0x1.3504f33f53741p+2', '0x1.6081ab9cec363p-27', '4d29646ba4726c24b313'),
        (6, '80b6805d4d9ea31b334d', '0x1.3504f347ec066p+2', '0x1.6081ab6719c60p-27', 'b7ffa9cf6686f4da7d00'),
        (8, '0db7f66b1db14feac86a', '0x1.3504f35370602p+2', '0x1.6081ab4ed5838p-27', '6874ebf90f807fadbdbd'),
    ),
    (0.9999999987175887, 2, 'lefthalf'): (
        (3, '009546b4881bb4986084', '0x1.3504f33f53741p+2', '0x1.ffffffe9f7e54p-1', 'ca8314fde8dfb85381c6'),
        (6, '80b6805d4d9ea31b334d', '0x1.3504f347ec066p+2', '0x1.6081ab6719c60p-27', 'b7ffa9cf6686f4da7d00'),
        (8, '0db7f66b1db14feac86a', '0x1.3504f35370602p+2', '0x1.6081ab4ed5838p-27', '6874ebf90f807fadbdbd'),
    ),
    (0.9999999987175887, 3, 'uniform'): (
        (5, '89d1efc30b08cfcb727e', '0x1.3504f340c07c4p+2', '0x1.13654e10d5d34p-26', '33c27a6a523c229abc28'),
        (13, 'ad9b0909e3c376167530', '0x1.3504f3467fb4dp+2', '0x1.1204cc168c933p-26', '1d774b40e599273c24c9'),
        (34, '523414e0f258cab28678', '0x1.59c9fcd23fcf7p+2', '0x1.15df67bd6c487p-26', '95b608697d787cb74e9e'),
    ),
    (0.9999999987175887, 3, 'lefthalf'): (
        (5, '00d842001539a4a2739c', '0x1.3504f340c07c6p+2', '0x1.fffffff7bcf5ep-1', '06b9d4c694d93040d39e'),
        (13, '13a3a7746c5343aa3da0', '0x1.3504f3467fb4fp+2', '0x1.1204cc168c934p-26', 'af047dfadc5c19ecc3f8'),
        (34, 'f8dee6522c4c5f38429e', '0x1.59c9fcd23fcf8p+2', '0x1.15df677d6c48fp-26', '1528d4455ad5234f8b4b'),
    ),
    (1.0, 1, "uniform"): (
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
    ),
    (1.0, 1, "lefthalf"): (
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x1.0000000000000p+0', '5a7b4ccfc147cee7e29e'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
    ),
    (1.0, 2, "uniform"): (
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
    ),
    (1.0, 2, "lefthalf"): (
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x1.0000000000000p+0', '5a7b4ccfc147cee7e29e'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
    ),
    (1.0, 3, "uniform"): (
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
    ),
    (1.0, 3, "lefthalf"): (
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x1.0000000000000p+0', '5a7b4ccfc147cee7e29e'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
        (1, '57260648d9adc6d7739a', '0x1.3504f333f9de6p+2', '0x0.0p+0', '1fe64313bd614cab8382'),
    ),
}


def _start(m, name):
    """lycheck's --f0 choices: the uniform density, or 2 on LEFT_HALF."""
    if name == "uniform":
        return D.uniform_density(m.region)
    return D.indicator_density(m.region, LEFT_HALF, 2.0)


@pytest.mark.parametrize("key", list(REFINE_PINS), ids=str)
def test_refine_consumers_pinned(key):
    t, pw, name = key
    m = tent_power(t, pw)
    f = _start(m, name)
    got = []
    for _ in range(3):
        g = D.push_forward(m, f)
        got.append((
            len(g.cells),
            _cells_digest(g),
            float.hex(D.variation(g)),
            float.hex(D.l1_distance(g, f)),
            _cells_digest(D.add_scaled(g, 0.75, f, -0.5)),
        ))
        f = g
    assert tuple(got) == REFINE_PINS[key]


def test_refine_of_two_grid_partitions_pinned(rng):
    f = random_grid_density(rng, TRIANGLE_T, 3)
    g = random_grid_density(rng, TRIANGLE_T, 4)
    combo = D.add_scaled(f, 0.75, g, -0.5)
    assert float.hex(D.l1_distance(f, g)) == "0x1.8c60bc2a85df2p-1"
    assert (len(combo.cells), _cells_digest(combo)) == (42, "158d1a4658eb95da26ee")


def _split_cells(poly, planes) -> list:
    """D._split of poly's cell, (vertices, area): the intersection (None
    where Empty), then the outside pieces."""
    inter, pieces = D._split((poly.vertices, poly.area), planes)
    return [inter, *pieces]


def _as_polygon(cell) -> ConvexPolygon:
    """A cell as _refine outputs it; EMPTY for None."""
    return geom2d.EMPTY if cell is None else ConvexPolygon._clean(*cell)


def _split_clipping_every_plane(poly, planes):
    """density._split without its unchanged-poly shortcut: clip the kept
    side plane by plane, then each outside piece."""
    rests = [poly.vertices]
    for nx, ny, off in planes:
        rest = geom2d._clip_verts(rests[-1], nx, ny, off)
        if not rest:
            return geom2d.EMPTY, ()
        rests.append(rest)
    inter = kept_polygon(rests[-1])
    if inter.is_empty:
        return geom2d.EMPTY, ()
    pieces = []
    for (nx, ny, off), rest in zip(planes, rests):
        outside = geom2d._clip_verts(rest, -nx, -ny, -off)
        if outside:
            piece = kept_polygon(outside)
            if not piece.is_empty:
                pieces.append(piece)
    return inter, pieces


@st.composite
def lattice_polygons(draw):
    """Convex hulls of points on the 1/8 lattice over [0, 2] x [0, 1]: the
    edge half-planes are exact, so vertices of one polygon often lie
    exactly on another's edges, with sign d = 0."""
    points = draw(
        st.lists(st.tuples(st.integers(0, 16), st.integers(0, 8)), min_size=3, max_size=8)
    )
    hull = convex_hull([(i / 8, j / 8) for i, j in points])
    poly = ConvexPolygon(hull) if len(hull) >= 3 else geom2d.EMPTY
    return poly if not poly.is_empty else TRIANGLE_T


@given(
    poly=lattice_polygons(),
    tile=lattice_polygons(),
    scale=st.sampled_from([1.0, 0.9, TENT_T_MIN]),
)
@settings(max_examples=300, deadline=None)
def test_split_matches_clipping_every_plane(poly, tile, scale):
    """_split returns what clipping every plane returns: exactly on the
    lattice (scale 1), and with the near-zero signs of scaled coordinates,
    whose vertices lie on the other's edges only to rounding."""
    if scale != 1.0:
        poly = ConvexPolygon([(scale * x, scale * y) for x, y in poly.vertices])
        tile = ConvexPolygon([(scale * x, scale * y) for x, y in tile.vertices])
    planes = tuple(tile.edge_halfplanes())
    got = [_as_polygon(c) for c in _split_cells(poly, planes)]
    want_inter, want_pieces = _split_clipping_every_plane(poly, planes)
    want = [want_inter, *want_pieces]
    assert _same_cells(got, want)
    assert [c.area.hex() for c in got] == [c.area.hex() for c in want]


def test_split_clips_only_the_planes_that_cut(monkeypatch):
    clip = geom2d._clip_verts
    calls = []

    def counting_clip(*args):
        calls.append(args)
        return clip(*args)

    monkeypatch.setattr(geom2d, "_clip_verts", counting_clip)
    inner = ConvexPolygon(((0.9, 0.1), (1.1, 0.1), (1.0, 0.3)))
    cell = (inner.vertices, inner.area)
    inter, pieces = D._split(cell, tuple(TRIANGLE_T.edge_halfplanes()))
    assert inter is cell and pieces == ()
    assert calls == []
    # Only LEFT_HALF's x <= 1 edge cuts the box: one clip for the kept
    # side, one for the outside piece.
    inter, *pieces = _split_cells(box(0.8, 0.1, 1.2, 0.3), tuple(LEFT_HALF.edge_halfplanes()))
    assert len(calls) == 2
    assert inter[1] == pytest.approx(0.04) and len(pieces) == 1


def _scaled(poly, scale):
    return ConvexPolygon([(scale * x, scale * y) for x, y in poly.vertices])


def _same_arrangement(got, want) -> bool:
    """Cells equal under _same_cells, values equal under float.hex."""
    return _same_cells([c for c, _ in got], [c for c, _ in want]) and [
        v.hex() for _, v in got
    ] == [v.hex() for _, v in want]


@given(
    tiles=st.lists(
        st.tuples(lattice_polygons(), st.sampled_from([1.0, -0.5, 0.1, 1.0 / 3.0, 0.0])),
        min_size=1,
        max_size=6,
    ),
    scale=st.sampled_from([1.0, 0.9, TENT_T_MIN]),
)
@settings(max_examples=200, deadline=None)
def test_refine_matches_the_bin_index_oracle(tiles, scale):
    """_refine against the bin-index refinement that clips every plane:
    lattice tiles meet the cells along x, y, x + y and x - y lines exactly
    (scale 1) and to rounding (the scaled copies)."""
    region = _scaled(TRIANGLE_T, scale)
    tiles = [(_scaled(tile, scale), v) for tile, v in tiles]
    got = D._refine(region, tiles)
    want = refine_oracle.refine(region, tiles)
    assert _same_arrangement(got, want)


def test_push_forward_intersects_only_cells_whose_boxes_meet_a_domain(monkeypatch):
    # Iterate 5 of lycheck's chain at power 3: intersecting every live
    # cell with every branch domain made 3,544 calls, 2,977 of them Empty.
    # Cells inside a domain are used whole: of the pieces that reach the
    # image step, 209 are clipped.
    m = tent_power(0.94187, 3)
    f = D.uniform_density(m.region)
    for _ in range(4):
        f = D.push_forward(m, f)
    calls = hits = tiles = 0
    refine = D._refine

    def counting_intersect(a, b):
        nonlocal calls, hits
        piece = geom2d.intersect(a, b)
        calls += 1
        hits += not piece.is_empty
        return piece

    def counting_refine(region, tile_list):
        nonlocal tiles
        tiles = len(tile_list)
        return refine(region, tile_list)

    monkeypatch.setattr(D, "intersect", counting_intersect)
    monkeypatch.setattr(D, "_refine", counting_refine)
    D.push_forward(m, f)
    assert tiles > 400
    assert calls <= 1.1 * hits, (calls, hits)


@pytest.mark.parametrize(
    "t, start, cells",
    [
        (0.94187, "uniform", 1553),
        (0.94187, "lefthalf", 1541),
        (TENT_T_MIN, "uniform", 1948),
        (TENT_T_MIN, "lefthalf", 1948),
        (0.999999, "uniform", 650),
        (0.999999, "lefthalf", 650),
    ],
)
def test_lycheck_chain_matches_the_bin_index_oracle(monkeypatch, t, start, cells):
    # lycheck's arrangement at power 3: pushforward iterates 1..5, and the
    # cell count of iterate 5.  Near t = 1 many cells lie inside a tile
    # only up to rounding.  _refine takes a cell for inside on boxes only
    # within margin / 8 of an octilinear tile's bounds: what lies outside
    # the tile is then below EPS_AREA, and _split would drop it.  A slack
    # of EPS_GEOM is not safe, since a sliver 9e-10 wide outside the tile
    # can have area above EPS_AREA (the explicit example of
    # test_refine_matches_refine_on_boxes).
    m = tent_power(t, 3)
    got = [_start(m, start)]
    for _ in range(5):
        got.append(D.push_forward(m, got[-1]))
    monkeypatch.setattr(D, "_refine", refine_oracle.refine)
    want = [_start(m, start)]
    for _ in range(5):
        want.append(D.push_forward(m, want[-1]))
    assert len(got[-1].cells) == cells
    for g, w in zip(got[1:], want[1:]):
        assert _same_arrangement(g.cells, w.cells)
        assert [c.area.hex() for c, _ in g.cells] == [c.area.hex() for c, _ in w.cells]


def _hex_cells(cells) -> list:
    """float.hex of every vertex coordinate, area and value, cell by cell."""
    return [
        ([c.hex() for p in poly.vertices for c in p], poly.area.hex(), v.hex())
        for poly, v in cells
    ]


def _checked(refine, calls: list):
    """refine, with every call compared with refine_oracle.refine_on_boxes
    by _hex_cells and its tile count appended to calls."""

    def checked(region, tiles):
        tiles = list(tiles)
        got = refine(region, tiles)
        assert _hex_cells(got) == _hex_cells(refine_oracle.refine_on_boxes(region, tiles))
        calls.append(len(tiles))
        return got

    return checked


@pytest.mark.parametrize("t", [TENT_T_MIN, 0.9, 0.999999, 0.9999999987175887, 1.0])
@pytest.mark.parametrize("pw", [1, 2, 3, 4])
def test_lycheck_chains_match_refine_on_boxes(monkeypatch, t, pw):
    # Every _refine of lycheck's chains from both starts, iterates 1..5
    # (1..4 at power 4), and of the signed overlays of consecutive
    # iterates that lycheck's L1 distances and REFINE_PINS take.
    calls = []
    monkeypatch.setattr(D, "_refine", _checked(D._refine, calls))
    m = tent_power(t, pw)
    for start in ("uniform", "lefthalf"):
        f = _start(m, start)
        for _ in range(5 if pw < 4 else 4):
            g = D.push_forward(m, f)
            D.l1_distance(g, f)
            D.add_scaled(g, 0.75, f, -0.5)
            f = g
    assert len(calls) >= 10


def _turned(poly, degrees):
    """poly rotated by degrees about (1, 0.5)."""
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return ConvexPolygon(
        [(1.0 + c * (x - 1.0) - s * (y - 0.5), 0.5 + s * (x - 1.0) + c * (y - 0.5)) for x, y in poly.vertices]
    )


@st.composite
def lattice_octagons(draw):
    """Octagons on the 1/8 lattice over [0, 2] x [0, 1]: a box with its
    corners cut along x + y and x - y lines, some cuts of depth 0."""
    xl, xh = sorted(draw(st.lists(st.integers(0, 16), min_size=2, max_size=2, unique=True)))
    yl, yh = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True)))
    c = draw(st.lists(st.integers(0, min(xh - xl, yh - yl) // 2), min_size=4, max_size=4))
    corners = [
        (xl + c[0], yl), (xh - c[1], yl), (xh, yl + c[1]), (xh, yh - c[2]),
        (xh - c[2], yh), (xl + c[3], yh), (xl, yh - c[3]), (xl, yl + c[0]),
    ]
    return ConvexPolygon([(i / 8, j / 8) for i, j in corners])


@given(
    tiles=st.lists(
        st.tuples(
            st.one_of(lattice_octagons(), lattice_polygons(), st.just(OFF_LATTICE_QUAD)),
            st.sampled_from([1.0, -0.5, 0.1, 1.0 / 3.0, -2.0, 0.0]),
            st.sampled_from([0.0, 0.0, 30.0]),
            st.sampled_from([(0.0, 0.0), (0.0, 0.0), (1e-14, 0.0), (9e-10, 0.0), (0.0, 9e-10), (6e-10, 6e-10)]),
        ),
        min_size=1,
        max_size=7,
    ),
    scale=st.sampled_from([1.0, 0.9, TENT_T_MIN]),
)
@settings(max_examples=300, deadline=None)
@example(  # the moved box peels a sliver 9e-10 high and 1.125 long off the first box's cell
    tiles=[(box(0.0, 0.0, 1.125, 0.25), 1.0, 0.0, (0.0, 0.0)), (box(0.0, 0.0, 1.125, 0.25), 1.0, 0.0, (0.0, 9e-10))],
    scale=1.0,
)
def test_refine_matches_refine_on_boxes(tiles, scale):
    """_refine against the refinement that splits every hit.  Lattice
    tiles contain cells exactly (scale 1) and to rounding (the scaled
    copies); a tile moved by 1e-14 contains them within the slack, and one
    moved by 9e-10 in x or y, or by 6e-10 in both, cuts off slivers that
    _kept keeps.  OFF_LATTICE_QUAD, most lattice hulls and the tiles
    turned by 30 degrees are not octilinear, and every cell they meet is
    split."""
    region = _scaled(TRIANGLE_T, scale)
    tiles = [
        (_scaled(_turned(ConvexPolygon([(x + dx, y + dy) for x, y in tile.vertices]), turn), scale), v)
        for tile, v, turn, (dx, dy) in tiles
    ]
    got = D._refine(region, tiles)
    assert _hex_cells(got) == _hex_cells(refine_oracle.refine_on_boxes(region, tiles))


@pytest.mark.parametrize("factor", [0.6, 0.999, 1.001, 2.0])
def test_refine_settles_a_contained_cell_only_above_the_area_floor(monkeypatch, factor):
    # A cell w wide and h high, then a box that contains it.  _held's
    # floor for the cell is 2 EPS_AREA + 2 EPS_GEOM (w + h), and at factor
    # 1 its area w h is on it.  Below it the cell is split.
    h = 0.01
    w = factor * (2.0 * EPS_AREA + 2.0 * EPS_GEOM * h) / (h - 2.0 * EPS_GEOM)
    tiles = [(box(0.7, 0.1, 0.7 + w, 0.1 + h), 1.0), (box(0.5, 0.05, 1.0, 0.2), -0.5)]
    want = refine_oracle.refine_on_boxes(TRIANGLE_T, tiles)
    split = D._split
    small = []

    def recording_split(cell, planes):
        if cell[1] < 1e-9:
            small.append(cell)
        return split(cell, planes)

    monkeypatch.setattr(D, "_split", recording_split)
    got = D._refine(TRIANGLE_T, tiles)
    assert _hex_cells(got) == _hex_cells(want)
    assert [v for poly, v in got if poly.area < 1e-9] == [0.5]
    assert len(small) == (factor < 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="the exact pushforward clips, and its merged vertices leave holes "
    "between arrangement cells near t = 1 (ROADMAP item 9 phase B)",
)
def test_pushforward_iterates_near_t1_tile_the_region():
    # lycheck's chain at power 3: the cells of iterate 5 miss 6.8e-9 of the
    # region's area (6.3e-9 on the domains that maps.power clipped).
    m = tent_power(0.999999, 3)
    f = D.uniform_density(m.region)
    for _ in range(5):
        f = D.push_forward(m, f)
    assert m.region.area - sum(poly.area for poly, _ in f.cells) <= 1e-13


def test_split_calls_on_the_lycheck_arrangements(monkeypatch):
    # ROADMAP item 8's four lycheck arrangements (power 3, jmax 4).  With
    # strict box overlap alone _split ran 10,429 times, and 2,854 calls
    # came out Empty: their cell and tile boxes overlapped by at most
    # 6.0e-14, below the margin _refine shrinks tile boxes by.  (7,575
    # calls on the domains that maps.power built by clipping.)  Splitting
    # every other hit made 7,675 calls; the cells a tile contains are now
    # settled on boxes instead, each where _held returns True.
    split, held = D._split, D._held
    calls = empty = settled = 0

    def counting_split(cell, planes):
        nonlocal calls, empty
        inter, pieces = split(cell, planes)
        calls += 1
        empty += inter is None
        return inter, pieces

    def counting_held(cell, box, bounds):
        nonlocal settled
        settles = held(cell, box, bounds)
        settled += settles
        return settles

    monkeypatch.setattr(D, "_split", counting_split)
    monkeypatch.setattr(D, "_held", counting_held)
    for t, start in ((0.94187, "uniform"), (0.94187, "lefthalf"), (0.9, "uniform"), (0.99, "lefthalf")):
        m = tent_power(t, 3)
        f = _start(m, start)
        for _ in range(4):
            f = D.push_forward(m, f)
    assert (calls, empty) == (1899, 0)
    assert calls + settled == 7675


def test_push_forward_builds_polygons_only_for_its_output(monkeypatch):
    # The arrangement runs on vertex tuples.  Building a ConvexPolygon for
    # every intermediate cell made 7,827 of them in iterate 5 of lycheck's
    # chain, for 1,560 output cells.
    m = tent_power(0.94187, 3)
    f = D.uniform_density(m.region)
    for _ in range(4):
        f = D.push_forward(m, f)
    builds = in_intersect = tiles = 0
    init, clean, refine = ConvexPolygon.__init__, ConvexPolygon._clean, D._refine

    def counting_init(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    def counting_clean(*args):
        nonlocal builds
        builds += 1
        return clean(*args)

    def counting_intersect(a, b):
        nonlocal in_intersect
        before = builds
        piece = geom2d.intersect(a, b)
        in_intersect += builds - before
        return piece

    def counting_refine(region, tile_list):
        nonlocal tiles
        tiles = len(tile_list)
        return refine(region, tile_list)

    monkeypatch.setattr(ConvexPolygon, "__init__", counting_init)
    monkeypatch.setattr(ConvexPolygon, "_clean", staticmethod(counting_clean))
    monkeypatch.setattr(D, "intersect", counting_intersect)
    monkeypatch.setattr(D, "_refine", counting_refine)
    out = D.push_forward(m, f)
    assert len(out.cells) > 1500 and tiles > 500
    # The domain pieces come from intersect; beyond them, one polygon per
    # tile and one per output cell.
    assert builds - in_intersect == tiles + len(out.cells), (builds, in_intersect, tiles)


@pytest.mark.parametrize("t", [TENT_T_MIN, 0.9, 0.999999, 1.0 - 1.3e-9, 1.0])
@pytest.mark.parametrize("pw", [1, 2, 3])
def test_push_forward_matches_the_vertex_pass_oracle(t, pw):
    # push_forward finds the cells that may meet a domain with _refine's
    # margin-shrunk box test and sends every one to intersect, which
    # clips only by the edges that cut.  The oracle found them by strict
    # box overlap and a vertex sign pass, and clipped by every edge.
    # Starts: 2 on LEFT_HALF, its pushforward projected onto the
    # resolution-16 grid (cells that carry their octagons' areas), a
    # signed combination, and a three-step chain from the uniform density.
    m = tent_power(t, pw)
    uniform, lefthalf = _start(m, "uniform"), _start(m, "lefthalf")
    signed = D.add_scaled(uniform, 0.75, lefthalf, -1.5)
    assert signed.signed and min(v for _, v in signed.cells) < 0.0
    grid = D.project_to_grid(D.push_forward(m, lefthalf), 16)

    def pushed(f):
        got = D.push_forward(m, f)
        assert _hex_cells(got.cells) == _hex_cells(refine_oracle.push_forward(m, f).cells)
        return got

    for f in (lefthalf, grid, signed):
        pushed(f)
    pushed(pushed(pushed(uniform)))


def _cuts(a, b) -> bool:
    """Whether a vertex of a fails an edge half-plane of b by
    geom2d._clip_verts' sign test."""
    return any(
        off - (nx * x + ny * y) < 0.0 for nx, ny, off in b.edge_halfplanes() for x, y in a.vertices
    )


@given(
    a=st.one_of(lattice_octagons(), lattice_polygons(), st.just(OFF_LATTICE_QUAD)),
    b=st.one_of(lattice_octagons(), lattice_polygons(), st.just(OFF_LATTICE_QUAD)),
    scale=st.sampled_from([1.0, 0.9, TENT_T_MIN]),
)
@settings(max_examples=300, deadline=None)
def test_intersect_returns_a_unless_an_edge_cuts_it(a, b, scale):
    """intersect(a, b) is a itself exactly when no edge of b cuts a, and
    otherwise has the bits of clipping a by every edge of b."""
    a, b = _scaled(a, scale), _scaled(b, scale)
    got = geom2d.intersect(a, b)
    want = refine_oracle.intersect(a, b)
    assert (got is a) == (not _cuts(a, b))
    assert _hex_cells([(got, 0.0)]) == _hex_cells([(want, 0.0)])
