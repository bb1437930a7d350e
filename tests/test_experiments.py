"""Sweeps, variation diagnostics, orbit statistics, and the 1D oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from tentstab import density as D
from tentstab import experiments as E
from tentstab.errors import CellExplosion, ParameterOutOfRange
from tentstab.maps import TENT_T_MIN, NormConvention, certify, tent_power

import ulam_oracle
from conftest import LEFT_HALF, TRIANGLE_T, cached_fixed

TAU = TENT_T_MIN
HALF_LOG2 = 0.5 * math.log(2.0)


class TestStabilitySweep:
    def test_reference_point_has_zero_gaps(self):
        rows = E.stability_sweep(1.0, [1.0], 16)
        row = rows[0]
        assert row.l1_dist == 0.0
        assert all(g == 0.0 for g in row.weakstar_gaps.values())

    def test_probability_gap_vanishes(self):
        rows = E.stability_sweep(1.0, [0.95], 16)
        assert rows[0].weakstar_gaps["1"] <= 1e-9

    def test_y_moment_of_uniform_density(self):
        # at t=1 the fixed density is 1, so the y moment is the exact
        # centroid integral of the triangle: 1/3
        op, vec = cached_fixed(1.0, 16)
        moments = E._density_moments(op.grid, vec.values)
        assert moments["y"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert moments["1"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("t", [TAU, 0.9, 1.0])
    def test_moments_match_per_cell_integrals(self, t):
        op, vec = cached_fixed(t, 16)
        values = [vec.values, np.random.default_rng(5).uniform(0.0, 2.0, vec.values.shape)]
        for vals in values:
            got = E._density_moments(op.grid, vals)
            want = ulam_oracle.density_moments(op.grid.cells, vals)
            for name in E.TEST_FUNCTIONS:
                assert got[name] == want[name]
                assert math.copysign(1.0, got[name]) == math.copysign(1.0, want[name])

    def test_rows_sorted_by_t(self):
        rows = E.stability_sweep(1.0, [0.95, 0.9, 0.99], 16)
        ts = [r.t for r in rows]
        assert ts == sorted(ts)

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            E.stability_sweep(1.0, [0.5], 16)
        with pytest.raises(ParameterOutOfRange):
            E.stability_sweep(1.0, [0.95], 8)

    def test_grids_stay_vertex_batches(self, monkeypatch):
        def unread(grid):
            raise AssertionError("the sweep read UlamGrid.cells")

        monkeypatch.setattr(D.UlamGrid, "cells", property(unread))
        E.stability_sweep(1.0, [0.95], 16)

    def test_resolution_64_sweep_heap_peak(self):
        E.stability_sweep(1.0, [0.95], 16)  # first-call imports stay out of the peak
        tracemalloc.start()
        try:
            E.stability_sweep(1.0, [0.9, 0.95], 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, f"{peak / 1e6:.1f} MB"

    def test_power_flag_gives_same_acim(self):
        # the invariant density of the map and its cube coincide
        r1 = E.stability_sweep(1.0, [0.92], 16, power=1)
        r3 = E.stability_sweep(1.0, [0.92], 16, power=3)
        assert r1[0].l1_dist == pytest.approx(r3[0].l1_dist, abs=0.08)


class TestLYCheck:
    def test_j0_row(self):
        cert = certify(tent_power(TAU, 3))
        f0 = D.uniform_density(TRIANGLE_T)
        rows = E.ly_check(TAU, f0, 0, cert)
        v0 = 2.0 + 2.0 * math.sqrt(2.0)
        assert rows[0].variation_j == pytest.approx(v0, abs=1e-12)
        assert rows[0].bound_paper == pytest.approx(v0 + cert.K1, rel=1e-12)
        assert rows[0].bound_paper >= rows[0].variation_j

    def test_t1_uniform_fixed_variation(self):
        cert = certify(tent_power(1.0, 3))
        f0 = D.uniform_density(TRIANGLE_T)
        rows = E.ly_check(1.0, f0, 3, cert)
        for row in rows:
            assert row.variation_j == pytest.approx(
                2.0 + 2.0 * math.sqrt(2.0), abs=1e-9
            )

    def test_t1_indicator_drops_in_one_step(self):
        cert = certify(tent_power(1.0, 3))
        f0 = D.indicator_density(TRIANGLE_T, LEFT_HALF, 2.0)
        rows = E.ly_check(1.0, f0, 1, cert)
        assert rows[0].variation_j == pytest.approx(2.0 * (2.0 + math.sqrt(2.0)), abs=1e-12)
        assert rows[1].variation_j == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), abs=1e-9)
        assert rows[1].variation_j < rows[0].variation_j

    def test_unsatisfied_certificate_rejected(self):
        cert = certify(tent_power(TAU, 3), NormConvention.SPECTRAL)
        with pytest.raises(ParameterOutOfRange):
            E.ly_check(TAU, D.uniform_density(TRIANGLE_T), 2, cert)

    def test_jmax_capped(self):
        cert = certify(tent_power(1.0, 3))
        with pytest.raises(ParameterOutOfRange):
            E.ly_check(1.0, D.uniform_density(TRIANGLE_T), 6, cert)


class TestLyapunov:
    def test_t1_exact_for_any_seed_and_n(self):
        for seed in (1, 7, 12345):
            for n in (1, 10, 500):
                val = E.lyapunov_exponent(1.0, (0.37, 0.11), n, seed)
                assert abs(val - HALF_LOG2) <= 1e-9

    def test_general_t(self):
        for t in (0.9, 0.95):
            val = E.lyapunov_exponent(t, (0.37, 0.11), 200, 3)
            assert abs(val - (HALF_LOG2 + math.log(t))) <= 1e-9

    def test_tau(self):
        val = E.lyapunov_exponent(TAU, (0.5, 0.2), 300, 5)
        assert abs(val - (HALF_LOG2 + math.log(TAU))) <= 1e-9

    def test_seed_independence(self):
        a = E.lyapunov_exponent(0.93, (0.37, 0.11), 400, 1)
        b = E.lyapunov_exponent(0.93, (0.37, 0.11), 400, 999)
        assert abs(a - b) <= 1e-12

    def test_long_t1_orbit_survives_exact_hits(self):
        # double-precision orbits at t=1 land exactly on the critical line and
        # are captured by the region boundary; neither may change the value
        val = E.lyapunov_exponent(1.0, E.seeded_start(1.0, 2), 20000, 2)
        assert abs(val - HALF_LOG2) <= 1e-9


@pytest.mark.parametrize("t", [0.0, 1.5, math.nan])
def test_orbit_functions_reject_bad_t(t):
    with pytest.raises(ParameterOutOfRange):
        E.lyapunov_exponent(t, (0.37, 0.11), 10, 1)
    with pytest.raises(ParameterOutOfRange):
        E.orbit_stats(t, (0.37, 0.11), 10, 1)


class TestBirkhoff:
    def test_constant_function_is_exact(self):
        assert E.birkhoff_average(0.93, "1", (0.37, 0.11), 137) == 1.0

    def test_orbit_stats_matches_generic_apply_short_horizon(self):
        # same orbit while no reseed fires and no boundary approach occurs
        x0 = (0.377, 0.113)
        st = E.orbit_stats(0.93, x0, 40, seed=5)
        for name in ("x", "y", "x2"):
            generic = E.birkhoff_average(0.93, name, x0, 40, seed=5)
            assert st.birkhoff[name] == pytest.approx(generic, abs=1e-12)

    def test_t1_spatial_averages(self):
        # n = 1e6 with reseeding; vs exact integrals of the uniform density
        expect = {"x": 1.0, "y": 1.0 / 3.0, "x2": 7.0 / 6.0}
        passes = 0
        for seed in range(1, 11):
            st = E.orbit_stats(1.0, E.seeded_start(1.0, seed), 10**6, seed)
            if all(abs(st.birkhoff[k] - v) <= 0.02 for k, v in expect.items()):
                passes += 1
        assert passes >= 9

    def test_orbit_stats_memory_does_not_grow_with_n(self):
        tracemalloc.start()
        try:
            E.orbit_stats(0.95, E.seeded_start(0.95, 3), 10**5, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # an array of the orbit would take 800 kB

    def test_reseeds_absent_at_small_t(self):
        st = E.orbit_stats(0.95, E.seeded_start(0.95, 3), 10**5, 3)
        assert st.reseeds == 0


def _tent1d_matrix_loop(a, n_cells):
    """Reference: the Ulam matrix of x -> 1 - a|x| entry by entry."""
    edges = np.array([-1.0 + 2.0 * k / n_cells for k in range(n_cells + 1)])
    width = 2.0 / n_cells
    matrix = np.zeros((n_cells, n_cells))

    def overlap(lo1, hi1, lo2, hi2):
        return max(0.0, min(hi1, hi2) - max(lo1, lo2))

    for i in range(n_cells):
        ci_lo, ci_hi = edges[i], edges[i + 1]
        for j in range(n_cells):
            c, d = edges[j], edges[j + 1]
            pre_lo, pre_hi = (c - 1.0) / a, (d - 1.0) / a
            ln = overlap(max(pre_lo, -1.0), min(pre_hi, 0.0), ci_lo, ci_hi)
            pre_lo, pre_hi = (1.0 - d) / a, (1.0 - c) / a
            ln += overlap(max(pre_lo, 0.0), min(pre_hi, 1.0), ci_lo, ci_hi)
            if ln > 0.0:
                matrix[i, j] = ln / width
    return matrix


class TestTent1D:
    @pytest.mark.parametrize("cells", [4, 32, 64])
    @pytest.mark.parametrize("a", [2.0, 1.6, 1.5, 1.7320508, 1.9999, 1.5000001])
    def test_matrix_matches_entrywise_loop(self, a, cells):
        got = E.tent1d_ulam(a, cells).matrix
        want = _tent1d_matrix_loop(a, cells)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_full_tent_four_cells_exact(self):
        res = E.tent1d_ulam(2.0, 4)
        expected = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [0.0, 0.0, 0.5, 0.5],
                [0.5, 0.5, 0.0, 0.0],
            ]
        )
        assert np.abs(res.matrix - expected).max() <= 1e-12

    @pytest.mark.parametrize("cells", [4, 64, 256])
    def test_full_tent_uniform_density(self, cells):
        res = E.tent1d_ulam(2.0, cells)
        assert np.abs(res.fixed_density - 0.5).max() <= 1e-8

    def test_rows_sum_to_one(self):
        for a in (1.3, 1.7, 2.0):
            res = E.tent1d_ulam(a, 32)
            assert np.abs(res.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            E.tent1d_ulam(2.5, 4)
        with pytest.raises(ParameterOutOfRange):
            E.tent1d_ulam(2.0, 5)

    def test_matrix_budget_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CellExplosion, match="n_cells=100000"):
                E.tent1d_ulam(2.0, 100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        E.tent1d_ulam(2.0, 1000)  # the largest count within the budget

    def test_general_slope_density_is_invariant(self):
        # stationarity check: density must be fixed by the matrix action
        res = E.tent1d_ulam(1.6, 128)
        masses = res.fixed_density * (2.0 / 128)
        pushed = res.matrix.T @ masses
        assert np.abs(pushed - masses).sum() <= 1e-7


class TestCSV:
    def test_sweep_csv_columns(self):
        rows = E.stability_sweep(1.0, [0.95], 16)
        text = E.sweep_csv(rows)
        header = text.split("\n", 1)[0]
        assert header == (
            "t,t0,power,resolution,iterations,residual,l1_dist,"
            "gap_1,gap_x,gap_y,gap_x2,gap_xy,gap_y2"
        )

    def test_ly_csv_columns(self):
        cert = certify(tent_power(1.0, 3))
        rows = E.ly_check(1.0, D.uniform_density(TRIANGLE_T), 1, cert)
        text = E.ly_csv(1.0, "PaperFormula", rows)
        assert text.split("\n", 1)[0] == "t,convention,j,variation_j,bound,ratio"
        assert ",PaperFormula," in text.split("\n")[1]

    def test_orbit_csv_columns(self):
        st = E.orbit_stats(1.0, (0.37, 0.11), 100, 1)
        text = E.orbit_csv([st])
        assert text.split("\n", 1)[0] == (
            "t,seed,n,lyapunov,birkhoff_1,birkhoff_x,birkhoff_y,"
            "birkhoff_x2,birkhoff_xy,birkhoff_y2"
        )
