"""Pushforward, variation, norms, Cesaro iteration, and Ulam operators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ulam_oracle
from tentstab import density as D
from tentstab.errors import (
    CellExplosion,
    ParameterOutOfRange,
    RegionMismatch,
    ResolutionTooLow,
    ZeroVariation,
)
from tentstab.geom2d import EPS_AREA, AffineMap2, ConvexPolygon, Matrix2, box, perimeter
from tentstab.maps import TENT_T_MIN, Branch, PiecewiseMap, make_tent2d, power, tent_power

from conftest import (
    LEFT_HALF,
    TRIANGLE_T,
    cached_fixed,
    random_convex_polygon,
    random_grid_density,
)

TAU = TENT_T_MIN


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


class TestSobolev:
    SHARP = 1.0 / (2.0 * math.sqrt(math.pi))

    def test_unit_square_indicator(self):
        square = box(0.0, 0.0, 1.0, 1.0)
        f = D.PiecewisePolyDensity(square, ((square, 1.0),))
        assert D.sobolev_ratio(f) == pytest.approx(0.25, abs=1e-12)
        assert D.sobolev_ratio(f) <= self.SHARP

    def test_indicator_left(self, chi_left):
        expected = math.sqrt(0.5) / (2.0 + math.sqrt(2.0))
        assert D.sobolev_ratio(chi_left) == pytest.approx(expected, abs=1e-12)

    def test_uniform(self, uniform):
        assert D.sobolev_ratio(uniform) == pytest.approx(
            1.0 / (2.0 + 2.0 * math.sqrt(2.0)), abs=1e-12
        )

    def test_zero_variation_raises(self):
        f = D.PiecewisePolyDensity(TRIANGLE_T, ((TRIANGLE_T, 0.0),))
        with pytest.raises(ZeroVariation):
            D.sobolev_ratio(f)

    def test_pushforward_iterates_stay_below_sharp(self, rng):
        m = make_tent2d(TAU)
        f = random_grid_density(rng, TRIANGLE_T, 3)
        for _ in range(3):
            f = D.push_forward(m, f)
            assert D.sobolev_ratio(f) <= self.SHARP + 1e-9


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
        areas = op.grid.areas()
        matrix_values = pushed_masses / areas
        for (poly, v), mv in zip(geometric.cells, matrix_values):
            assert v == pytest.approx(mv, abs=1e-10)


class TestUlam:
    @pytest.mark.parametrize("t", [TAU, 0.95, 1.0])
    def test_rows_stochastic(self, t):
        op, _ = cached_fixed(t, 16)
        rows = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.abs(rows - 1.0).max() <= 1e-9
        assert op.matrix.min() >= 0.0
        assert op.matrix.max() <= 1.0 + 1e-12

    def test_t1_uniform_exactly_fixed(self):
        op, vec = cached_fixed(1.0, 16)
        assert np.abs(vec.values - 1.0).max() <= 1e-9
        masses = op.grid.areas()
        assert np.abs(op.matrix.T @ masses - masses).max() <= 1e-12

    def test_two_cell_doubly_stochastic(self):
        import scipy.sparse as sp

        grid = D.UlamGrid.build(box(0.0, 0.0, 2.0, 1.0), 2)
        # replace with a hand matrix on equal-area cells
        m = sp.csr_matrix(np.full((len(grid.cells), len(grid.cells)), 0.0))
        half = np.full((2, 2), 0.5)
        n = len(grid.cells)
        mat = np.zeros((n, n))
        mat[:, :] = 1.0 / n
        op = D.UlamOperator(grid, sp.csr_matrix(mat))
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
        mass = float(vec.values @ op.grid.areas())
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert vec.values.min() >= 0.0


class TestExports:
    def test_density_csv_roundtrip(self, chi_left):
        text = D.density_csv(chi_left)
        lines = text.strip().split("\n")
        assert lines[0].startswith("cell_id,area,centroid_x,centroid_y,value,n_vertices,v0x,v0y")
        assert len(lines) == 1 + len(chi_left.cells)
        first = lines[1].split(",")
        assert float(first[1]) > 0.0

    def test_matrix_csv(self):
        op, _ = cached_fixed(1.0, 16)
        text = D.ulam_matrix_csv(op.matrix)
        lines = text.strip().split("\n")
        assert lines[0] == "i,j,weight"
        i, j, w = lines[1].split(",")
        assert float(w) > 0.0

    def test_csv_floats_roundtrip(self, chi_left):
        text = D.density_csv(chi_left)
        for line in text.strip().split("\n")[1:]:
            parts = line.split(",")
            area_back = float(parts[1])
            # 17 significant digits round-trip doubles exactly
            assert f"{area_back:.17g}" == parts[1]


def test_project_to_grid_preserves_mass(rng):
    f = random_grid_density(rng, TRIANGLE_T, 5)
    g = D.project_to_grid(f, 3)
    assert g.mass() == pytest.approx(f.mass(), abs=1e-12)


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


class TestOverlayKernel:
    """The batched kernel against the per-cell loops in ulam_oracle."""

    @pytest.mark.parametrize("pw", [1, 2])
    @pytest.mark.parametrize("t", [TAU, 0.9, 1.0])
    @pytest.mark.parametrize("resolution", [16, 64, 128])
    def test_ulam_matrix_and_grid_bit_identical(self, resolution, t, pw):
        m = tent_power(t, pw)
        op = D.build_ulam(m, resolution)
        grid, matrix = ulam_oracle.build_ulam(m, resolution)
        assert _bits_equal(op.matrix.data, matrix.data)
        assert _bits_equal(op.matrix.indices, matrix.indices)
        assert _bits_equal(op.matrix.indptr, matrix.indptr)
        assert _same_cells(op.grid.cells, grid.cells)
        assert _bits_equal(op.grid.areas(), np.array([c.area for c in grid.cells]))

    def test_grids_of_random_regions_bit_identical(self, rng):
        for _ in range(6):
            region = random_convex_polygon(rng)
            for resolution in (3, 7, 16):
                grid = D.UlamGrid.build(region, resolution)
                want = ulam_oracle.Grid(region, resolution)
                assert _same_cells(grid.cells, want.cells)
                assert _bits_equal(grid.areas(), np.array([c.area for c in want.cells]))

    def test_ulam_on_random_regions_bit_identical(self, rng):
        # p -> (p + centroid) / 2 maps a convex region into itself
        for _ in range(3):
            region = random_convex_polygon(rng)
            cx, cy = region.centroid()
            halve = AffineMap2(Matrix2(0.5, 0.0, 0.0, 0.5), (0.5 * cx, 0.5 * cy))
            m = PiecewiseMap(region, (Branch(region, halve, 0.25),), "halving")
            for resolution in (5, 11):
                op = D.build_ulam(m, resolution)
                _, matrix = ulam_oracle.build_ulam(m, resolution)
                assert _bits_equal(op.matrix.data, matrix.data)
                assert _bits_equal(op.matrix.indices, matrix.indices)
                assert _bits_equal(op.matrix.indptr, matrix.indptr)

    @pytest.mark.parametrize("resolution", [8, 13])
    def test_ulam_with_orientation_reversing_branches_bit_identical(self, resolution):
        # the unit square folded at x = 1/2; both branches have det -2
        flip_y = AffineMap2(Matrix2(2.0, 0.0, 0.0, -1.0), (0.0, 1.0))
        flip_x = AffineMap2(Matrix2(-2.0, 0.0, 0.0, 1.0), (2.0, 0.0))
        branches = (
            Branch(box(0.0, 0.0, 0.5, 1.0), flip_y, 2.0),
            Branch(box(0.5, 0.0, 1.0, 1.0), flip_x, 2.0),
        )
        m = PiecewiseMap(box(0.0, 0.0, 1.0, 1.0), branches, "fold")
        op = D.build_ulam(m, resolution)
        _, matrix = ulam_oracle.build_ulam(m, resolution)
        assert _bits_equal(op.matrix.data, matrix.data)
        assert _bits_equal(op.matrix.indices, matrix.indices)
        assert _bits_equal(op.matrix.indptr, matrix.indptr)

    @pytest.mark.parametrize("n, resolution", [(2, 3), (3, 8), (5, 4), (8, 16)])
    def test_project_to_grid_bit_identical(self, rng, n, resolution):
        f = random_grid_density(rng, TRIANGLE_T, n)
        got = D.project_to_grid(f, resolution)
        want = ulam_oracle.project_to_grid(f, resolution)
        assert _same_cells([c for c, _ in got.cells], [c for c, _ in want.cells])
        assert _bits_equal([v for _, v in got.cells], [v for _, v in want.cells])

    def test_project_to_grid_of_a_cesaro_iterate_bit_identical(self):
        m = make_tent2d(0.93)
        f = D.push_forward(m, D.project_to_grid(D.uniform_density(TRIANGLE_T), 16))
        got = D.project_to_grid(f, 16)
        want = ulam_oracle.project_to_grid(f, 16)
        assert _bits_equal([v for _, v in got.cells], [v for _, v in want.cells])

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

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_chunk_size_does_not_change_results(self, monkeypatch, rng, chunk):
        # short last chunks, chunks of one pair, chunks that split a row
        m = tent_power(0.9, 2)
        f = random_grid_density(rng, TRIANGLE_T, 5)
        want_op = D.build_ulam(m, 8)
        want_f = D.project_to_grid(f, 6)
        monkeypatch.setattr(D, "OVERLAY_CHUNK", chunk)
        op = D.build_ulam(m, 8)
        _, matrix = ulam_oracle.build_ulam(m, 8)
        for got in (op.matrix, matrix):
            assert _bits_equal(got.data, want_op.matrix.data)
            assert _bits_equal(got.indices, want_op.matrix.indices)
            assert _bits_equal(got.indptr, want_op.matrix.indptr)
        assert _same_cells(op.grid.cells, want_op.grid.cells)
        got_f = D.project_to_grid(f, 6)
        assert _bits_equal([v for _, v in got_f.cells], [v for _, v in want_f.cells])

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


def _shifted_square_map(shift: float) -> PiecewiseMap:
    """The unit square translated right by shift: the image leaves the
    region, losing area shift / 2 from each right-column cell at res 2."""
    square = box(0.0, 0.0, 1.0, 1.0)
    branch = Branch(square, AffineMap2(Matrix2(1.0, 0.0, 0.0, 1.0), (shift, 0.0)), 1.0)
    return PiecewiseMap(square, (branch,), "shifted square")


class TestLostArea:
    def test_image_leaving_the_grid_raises(self):
        m = _shifted_square_map(4e-9)  # lost area 2e-9 per right-column cell
        with pytest.raises(ResolutionTooLow, match=r"cell 1 maps outside .* 2e-09"):
            D.build_ulam(m, 2)
        with pytest.raises(ResolutionTooLow, match=r"cell 1 maps outside .* 2e-09"):
            ulam_oracle.build_ulam(m, 2)

    def test_threshold_is_1e_minus_9(self):
        m = _shifted_square_map(1e-9)  # lost area 5e-10 per cell: kept
        op = D.build_ulam(m, 2)
        _, matrix = ulam_oracle.build_ulam(m, 2)
        assert _bits_equal(op.matrix.data, matrix.data)


@given(
    t=st.floats(min_value=TENT_T_MIN, max_value=1.0),
    pw=st.integers(min_value=1, max_value=2),
    resolution=st.integers(min_value=4, max_value=24),
)
@example(t=TENT_T_MIN, pw=1, resolution=4)
@example(t=1.0, pw=2, resolution=24)
@example(t=0.99999, pw=1, resolution=10)  # drops a 9.99992e-13 overlap from row 92
@example(t=0.9999999987175887, pw=2, resolution=24)  # row 467 loses 3.1e-8 to a merge
@settings(max_examples=60, deadline=None)
def test_ulam_rows_are_probability_vectors(t, pw, resolution):
    """Entries are positive, no row is empty, and rows sum to 1 within
    1e-12 once the slivers that clipping drops are added back: a row that
    misses 1 by more than 1e-12 misses it by the mass the per-cell loop
    drops from it, to 1e-12."""
    m = tent_power(t, pw)
    op = D.build_ulam(m, resolution)
    deficit = 1.0 - np.asarray(op.matrix.sum(axis=1)).ravel()
    off = np.flatnonzero(np.abs(deficit) > 1e-12)
    if off.size:
        grid = ulam_oracle.Grid(m.region, resolution)
        dropped = np.array([ulam_oracle.dropped_mass(m, grid, i) for i in off])
        assert (np.abs(deficit[off] - dropped) <= 1e-12).all()
    assert (op.matrix.data > 0.0).all()
    assert (np.diff(op.matrix.indptr) > 0).all()


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
    area, x_moment = grid.moments(ones, [(0, 0), (1, 0)])
    assert area == pytest.approx(1.0, abs=1e-14)
    assert x_moment == pytest.approx(1.0, abs=1e-14)  # centroid x = 1
    with pytest.raises(ValueError, match="total degree <= 2"):
        grid.moments(ones, [(2, 1)])
