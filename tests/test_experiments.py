"""Sweeps, variation diagnostics, orbit statistics, and the 1D oracle."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tentstab import density as D
from tentstab import experiments as E
from tentstab.errors import CellExplosion, OutsideRegion, ParameterOutOfRange
from tentstab.maps import TENT_REGION, TENT_T_MIN, NormConvention, apply, certify, make_tent2d
from tentstab.maps import tent_power

import orbit_oracle
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
        moments = op.grid.moments(vec.values)
        assert moments[(0, 1)] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert moments[(0, 0)] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("t", [TAU, 0.9, 1.0])
    def test_moments_match_per_cell_integrals(self, t):
        op, vec = cached_fixed(t, 16)
        values = [vec.values, np.random.default_rng(5).uniform(0.0, 2.0, vec.values.shape)]
        for vals in values:
            got = op.grid.moments(vals)
            want = ulam_oracle.density_moments(op.grid.cells, vals)
            for name, p in E.TEST_FUNCTIONS.items():
                assert got[p] == want[name]
                assert math.copysign(1.0, got[p]) == math.copysign(1.0, want[name])

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

    def test_one_grid_serves_every_parameter(self, monkeypatch):
        builds = []
        build = D.UlamGrid.build
        monkeypatch.setattr(
            D.UlamGrid, "build", staticmethod(lambda *args: builds.append(args) or build(*args))
        )
        rows = E.stability_sweep(1.0, [0.9, 0.95], 16)
        monkeypatch.undo()
        assert len(builds) == 1
        # the rows of operators built each on its own grid
        h0 = D.ulam_fixed(D.build_ulam(tent_power(1.0, 1), 16))
        moments0 = D.UlamGrid.build(TENT_REGION, 16).moments(h0.values)
        for row in rows:
            op = D.build_ulam(tent_power(row.t, 1), 16)
            h = D.ulam_fixed(op)
            assert row.l1_dist == float(np.abs(h.values - h0.values) @ op.grid.cell_areas)
            assert row.iterations == h.iterations and row.residual == h.residual
            moments = op.grid.moments(h.values)
            gaps = {name: abs(moments[p] - moments0[p]) for name, p in E.TEST_FUNCTIONS.items()}
            assert row.weakstar_gaps == gaps

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
        m = tent_power(TAU, 3)
        cert = certify(m)
        f0 = D.uniform_density(TRIANGLE_T)
        rows = E.ly_check(m, f0, 0, cert)
        v0 = 2.0 + 2.0 * math.sqrt(2.0)
        assert rows[0].variation_j == pytest.approx(v0, abs=1e-12)
        assert rows[0].bound_paper == pytest.approx(v0 + cert.K1, rel=1e-12)
        assert rows[0].bound_paper >= rows[0].variation_j

    def test_t1_uniform_fixed_variation(self):
        m = tent_power(1.0, 3)
        cert = certify(m)
        f0 = D.uniform_density(TRIANGLE_T)
        rows = E.ly_check(m, f0, 3, cert)
        for row in rows:
            assert row.variation_j == pytest.approx(
                2.0 + 2.0 * math.sqrt(2.0), abs=1e-9
            )

    def test_t1_indicator_drops_in_one_step(self):
        m = tent_power(1.0, 3)
        cert = certify(m)
        f0 = D.indicator_density(TRIANGLE_T, LEFT_HALF, 2.0)
        rows = E.ly_check(m, f0, 1, cert)
        assert rows[0].variation_j == pytest.approx(2.0 * (2.0 + math.sqrt(2.0)), abs=1e-12)
        assert rows[1].variation_j == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), abs=1e-9)
        assert rows[1].variation_j < rows[0].variation_j

    def test_unsatisfied_certificate_rejected(self):
        m = tent_power(TAU, 3)
        cert = certify(m, NormConvention.SPECTRAL)
        with pytest.raises(ParameterOutOfRange):
            E.ly_check(m, D.uniform_density(TRIANGLE_T), 2, cert)

    def test_jmax_capped(self):
        m = tent_power(1.0, 3)
        cert = certify(m)
        with pytest.raises(ParameterOutOfRange):
            E.ly_check(m, D.uniform_density(TRIANGLE_T), 6, cert)

    def test_certificate_of_another_t_rejected(self):
        # It pushed forward at t = 0.95 and bounded with t = 0.9's lambda and K1.
        cert = certify(tent_power(0.9, 3))
        with pytest.raises(ParameterOutOfRange, match="certificate is for t=0.9"):
            E.ly_check(tent_power(0.95, 3), D.uniform_density(TRIANGLE_T), 1, cert)

    def test_certificate_of_another_power_rejected(self):
        # Bounding power-2 iterates with the cube's lambda and K1.
        cert = certify(tent_power(0.9, 3))
        with pytest.raises(ParameterOutOfRange, match="power=3, not t=0.9, power=2"):
            E.ly_check(tent_power(0.9, 2), D.uniform_density(TRIANGLE_T), 1, cert)

    def test_rows_are_those_of_the_certified_map(self):
        # The map is pushed forward as given, not rebuilt from cert.t.
        m = tent_power(0.95, 3)
        cert = certify(m)
        f0 = D.indicator_density(TRIANGLE_T, LEFT_HALF, 2.0)
        rows = E.ly_check(m, f0, 2, cert)
        f = f0
        for row in rows[1:]:
            f = D.push_forward(m, f)
            assert row.variation_j == D.variation(f)


@pytest.mark.parametrize(
    "call",
    [
        lambda: E.orbit_stats(0.9, (0.5, 0.2), 0, 1),
        lambda: E.lyapunov_exponent(0.9, (0.5, 0.2), 0, 1),
        lambda: E.birkhoff_average(0.9, "x", (0.5, 0.2), 0),
    ],
    ids=["orbit_stats", "lyapunov_exponent", "birkhoff_average"],
)
def test_orbit_length_zero_rejected(call):
    with pytest.raises(ParameterOutOfRange, match="orbit length must be >= 1"):
        call()


def test_birkhoff_average_rejects_unknown_observable():
    with pytest.raises(ParameterOutOfRange, match="unknown observable 'z'; choose from 1, x, y"):
        E.birkhoff_average(0.9, "z", (0.5, 0.2), 10)


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


@pytest.mark.parametrize(
    "x0", [(math.nan, 0.1), (0.5, math.nan), (5.0, 3.0), (1.0, -0.1), (1.5, 0.6)]
)
def test_orbit_functions_reject_start_outside_region(x0):
    with pytest.raises(OutsideRegion):
        E.orbit_stats(0.9, x0, 100, 1)
    with pytest.raises(OutsideRegion):
        E.lyapunov_exponent(0.9, x0, 100, 1)
    with pytest.raises(OutsideRegion):
        E.birkhoff_average(0.9, "x", x0, 100, 1)


# corners and edges within EPS_GEOM are in the region, as for maps.apply
BOUNDARY_STARTS = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (0.5, -1e-10), (1.5, 0.5))


def test_orbit_functions_accept_start_on_region_boundary():
    for x0 in BOUNDARY_STARTS:
        assert E.orbit_stats(0.9, x0, 50, 1).x0 == x0
        assert math.isfinite(E.birkhoff_average(0.9, "x", x0, 50, 1))


class TestBirkhoff:
    def test_constant_function_is_exact(self):
        assert E.birkhoff_average(0.93, "1", (0.37, 0.11), 137) == 1.0

    def test_orbit_stats_matches_generic_apply_short_horizon(self):
        # same orbit while no reseed fires and no boundary approach occurs;
        # the oracle runs maps.apply on every step
        x0 = (0.377, 0.113)
        st = E.orbit_stats(0.93, x0, 40, seed=5)
        for name in ("x", "y", "x2"):
            generic = orbit_oracle.birkhoff_average(0.93, name, x0, 40, seed=5)
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
        # The scalar loop keeps checkpoints only, and their lanes hold one
        # batch at a time: below the 2.2 MB of the 512-cell oracle1d
        # matrix, and no higher for ten times the steps (an array of the
        # 1e6-step orbit would take 8 MB).
        peaks = []
        for n in (10**5, 10**6):
            tracemalloc.start()
            try:
                E.orbit_stats(0.95, E.seeded_start(0.95, 3), n, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2_000_000
        assert peaks[1] <= peaks[0]

    def test_reseeds_absent_at_small_t(self):
        st = E.orbit_stats(0.95, E.seeded_start(0.95, 3), 10**5, 3)
        assert st.reseeds == 0


# Orbit values pinned to the last bit (17 digits).  The t = 1 orbits are
# captured by the region boundary about every 100 steps, so they run
# through the reseed path; the golden `orbit` case (t = 0.9) never does.
PINNED_ORBITS = [
    E.OrbitStats(
        1.0, 2, 200000, (0.8217154119127561, 0.29849114341412331),
        0.34657359027965196,
        {"1": 1.0, "x": 0.99833001277218292, "y": 0.33397350705262019,
         "x2": 1.1614248688349329, "xy": 0.33353726308132825,
         "y2": 0.1667249976376198},
        1982,
    ),
    E.OrbitStats(
        1.0, 1234567, 200000, (1.0049275892020011, 0.99223174850464479),
        0.34657359027965196,
        {"1": 1.0, "x": 1.000427218251958, "y": 0.33464422429151242,
         "x2": 1.1643245557541682, "xy": 0.33467360121326606,
         "y2": 0.16686843570630713},
        1985,
    ),
    E.OrbitStats(
        0.88141192811024427, 7, 20000, (0.85259526582109058, 0.10278619903042452),
        0.22034339675485884,
        {"1": 1.0, "x": 1.0977729694951965, "y": 0.39733983568582087,
         "x2": 1.2300522516544761, "xy": 0.43504712394355249,
         "y2": 0.17080014473141295},
        0,
    ),
    E.OrbitStats(
        0.90000000000000002, 11, 20000, (0.75641826797851419, 0.49927786244011496),
        0.2412130746221525,
        {"1": 1.0, "x": 1.0997037551801805, "y": 0.39275773027896205,
         "x2": 1.2431585281094906, "xy": 0.43037054264055957,
         "y2": 0.17072903743895057},
        0,
    ),
    E.OrbitStats(
        0.99999000000000005, 3, 20000, (0.40810884088334842, 0.2368105065960997),
        0.34656359023007194,
        {"1": 1.0, "x": 0.99663615251574333, "y": 0.33221252523635292,
         "x2": 1.1623713070315842, "xy": 0.33147741663023278,
         "y2": 0.16647618275704021},
        0,
    ),
]


class TestPinnedOrbits:
    @pytest.mark.parametrize(
        "want", PINNED_ORBITS, ids=[f"t{p.t}-seed{p.seed}" for p in PINNED_ORBITS]
    )
    def test_orbit_stats(self, want):
        x0 = E.seeded_start(want.t, want.seed)
        assert E.orbit_stats(want.t, x0, want.n, want.seed) == want

    def test_lyapunov_exponent(self):
        # 496 reseeds along the way
        val = E.lyapunov_exponent(1.0, E.seeded_start(1.0, 3), 50000, 3)
        assert val == 0.34657359027957302

    def test_birkhoff_average_through_reseeds(self):
        # maps.apply's arithmetic, inline after the first step (the value
        # of orbit_oracle.birkhoff_average, which runs apply on every
        # step); 200 reseeds along the way
        val = E.birkhoff_average(1.0, "x", E.seeded_start(1.0, 5), 20000, 5)
        assert val == 0.99902124110991886

    def test_reseed_points_are_python_floats(self):
        # numpy scalars would give the same bits, at twice the cost per step
        rng = np.random.default_rng(2)
        points = [E.seeded_start(1.0, 2)] + [E._reseed_point(rng) for _ in range(50)]
        for x, y in points:
            assert type(x) is float and type(y) is float

    def test_seeded_starts_are_pinned(self):
        # float.hex of seeded_start(0.9, seed) for seeds 0-1999, one line
        # each, as the scalar acceptance loop drew them
        digest = hashlib.sha256()
        for seed in range(2000):
            x, y = E.seeded_start(0.9, seed)
            digest.update(f"{x.hex()} {y.hex()}\n".encode())
        want = "4616bda4629ce1c8f7151ecd51ee9ec2cabd4a01b56af1e8c9a4d09ee544619d"
        assert digest.hexdigest() == want

    def test_reseed_point_skips_a_rejected_draw(self):
        class Draws:  # rng.random((1, 2)) from a list of rows
            def __init__(self, rows):
                self.rows = iter(rows)

            def random(self, shape):
                return np.array([next(self.rows)]).reshape(shape)

        # (0, 0) is the region's corner; (0.25, 0.5) maps to (1.0, 0.5)
        assert E._reseed_point(Draws([(0.0, 0.0), (0.25, 0.5)])) == (1.0, 0.5)


def _orbit_hex(st):
    """Every field of an OrbitStats, floats as float.hex (equal means equal bits)."""
    return (
        st.t.hex(), st.seed, st.n, tuple(v.hex() for v in st.x0),
        st.lyapunov.hex(), {k: v.hex() for k, v in st.birkhoff.items()}, st.reseeds,
    )


_ORACLE_T = [TAU, 0.9, 0.99999, 1.0 - 1e-12, 1.0]
# (t, seed, n): fixed t at short and medium n, seeded random t in
# [TENT_T_MIN, 1], and long t = 1 orbits that reseed about every 100 steps.
ORACLE_CASES = (
    [(t, seed, n) for t in _ORACLE_T for seed in (1, 2, 3) for n in (1, 7, 20000)]
    + [
        (float(t), 100 + k, 5000)
        for k, t in enumerate(np.random.default_rng(20241018).uniform(TAU, 1.0, 12))
    ]
    + [(1.0, 2, 200000), (1.0, 1234567, 200000)]
)

# Orbit lengths at the edges of a lane (_LANE_STEPS steps) and of a batch
# of checkpointed lanes (_LANES lanes), and over three batches and a bit:
# at t < 1 the scalar loop's batches cover the whole orbit.
_L, _K = E._LANE_STEPS, E._LANES
BATCH_EDGES = [_L - 1, _L, _L + 1, _K * _L - 1, _K * _L, _K * _L + 1, 3 * _K * _L + 5]


class TestOrbitOracle:
    @pytest.mark.parametrize(
        "t,seed,n", ORACLE_CASES, ids=[f"t{t!r}-seed{s}-n{n}" for t, s, n in ORACLE_CASES]
    )
    def test_orbit_stats_matches_step_by_step_tangent(self, t, seed, n):
        x0 = E.seeded_start(t, seed)
        want = orbit_oracle.orbit_stats(t, x0, n, seed)
        assert _orbit_hex(E.orbit_stats(t, x0, n, seed)) == _orbit_hex(want)
        if t == 1.0 and n == 200000:
            assert want.reseeds > 1000

    @pytest.mark.parametrize("n", BATCH_EDGES)
    @pytest.mark.parametrize("t", [TAU, 0.9])
    def test_orbits_across_batch_edges(self, t, n):
        x0 = E.seeded_start(t, 1)
        want = orbit_oracle.orbit_stats(t, x0, n, 1)
        assert _orbit_hex(E.orbit_stats(t, x0, n, 1)) == _orbit_hex(want)


def _capture_steps(t, x0, seed, count):
    """The steps on which the first `count` boundary captures of the orbit
    happen (the smallest n whose oracle run counts each reseed)."""
    steps, n = [], 0
    while len(steps) < count:
        n += 1
        if orbit_oracle.orbit_stats(t, x0, n, seed).reseeds > len(steps):
            steps.append(n)
    return steps


class TestOrbitLanes:
    """orbit_stats' reseeded segments, run as numpy lanes, against the
    step-by-step oracle under float.hex."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_orbits_ending_at_the_first_captures(self, seed):
        x0 = E.seeded_start(1.0, seed)
        captures = _capture_steps(1.0, x0, seed, 3)
        for n in sorted({c + d for c in captures for d in (-1, 0, 1)}):
            want = orbit_oracle.orbit_stats(1.0, x0, n, seed)
            assert _orbit_hex(E.orbit_stats(1.0, x0, n, seed)) == _orbit_hex(want), n

    def test_start_captured_on_the_first_step_below_one(self):
        # At t < 1 the boundary captures the start (0.5, 0), and no reseeded
        # segment is ever captured: every lane outlives the cap.
        x0 = (0.5, 0.0)
        assert _capture_steps(0.9, x0, 1, 1) == [1]
        for n in (1, 2, 3, 200, 20000):
            want = orbit_oracle.orbit_stats(0.9, x0, n, 1)
            assert want.reseeds == 1
            assert _orbit_hex(E.orbit_stats(0.9, x0, n, 1)) == _orbit_hex(want), n

    @pytest.mark.parametrize("cap", [1, 8, 64, 96])
    def test_lanes_that_outlive_the_cap(self, monkeypatch, cap):
        # At t = 1 segments last 79 to 104 steps: caps 1, 8 and 64 send
        # every lane back to the scalar loop, and cap 96 some of them.
        monkeypatch.setattr(E, "_LANE_STEPS", cap)
        for seed, n in ((1, 5000), (2, 20000), (7, 333)):
            x0 = E.seeded_start(1.0, seed)
            want = orbit_oracle.orbit_stats(1.0, x0, n, seed)
            assert _orbit_hex(E.orbit_stats(1.0, x0, n, seed)) == _orbit_hex(want)

    @pytest.mark.parametrize("t", [0.9, 1.0])
    def test_starts_on_the_boundary_and_the_critical_line(self, t):
        # Starts on the region's edges and corners, which the first step
        # may leave, and on the critical line x = 1 (the first branch's).
        for x0 in (*BOUNDARY_STARTS, (1.0, 0.3), (1.0, 0.5)):
            for n in (1, 2, 50):
                want = orbit_oracle.orbit_stats(t, x0, n, 1)
                assert _orbit_hex(E.orbit_stats(t, x0, n, 1)) == _orbit_hex(want), (x0, n)

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("cap", [1, 8])
    def test_checkpoint_batches_of_other_shapes(self, monkeypatch, cap, lanes):
        # Batches of `lanes` checkpoints `cap` steps apart, at t = 0.9 from
        # a seeded start and from (0.5, 0), which the boundary captures on
        # the first step, and at t = 1, whose first segments the boundary
        # captures in the middle of a batch, at and next to the captures.
        monkeypatch.setattr(E, "_LANE_STEPS", cap)
        monkeypatch.setattr(E, "_LANES", lanes)
        batch = cap * lanes
        edges = {cap - 1, cap, cap + 1, batch - 1, batch, batch + 1, 3 * batch + 5, 2000}
        x0 = E.seeded_start(0.9, 2)
        cases = [(0.9, x0, 2, n) for n in sorted(edges - {0})]
        cases += [(0.9, (0.5, 0.0), 1, n) for n in (1, 2, 3, 200)]
        x0 = E.seeded_start(1.0, 1)
        captures = _capture_steps(1.0, x0, 1, 2)
        cases += [(1.0, x0, 1, c + d) for c in captures for d in (-1, 0, 1)]
        for t, x0, seed, n in cases:
            want = orbit_oracle.orbit_stats(t, x0, n, seed)
            assert _orbit_hex(E.orbit_stats(t, x0, n, seed)) == _orbit_hex(want), (t, x0, n)

    @pytest.mark.parametrize("seed", range(10))
    def test_batched_reseed_points_match_one_at_a_time(self, seed):
        rng = np.random.default_rng(seed)
        want = [E._reseed_point(rng) for _ in range(10000)]
        rng = np.random.default_rng(seed)
        xs, ys = [], []
        for k in (1, 2, 997, 4000, 5000, 100):
            x, y = E._reseed_points(rng, k)
            xs += x.tolist()
            ys += y.tolist()
        assert len(xs) >= 10000
        got = list(zip(xs, ys))[:10000]
        assert [(x.hex(), y.hex()) for x, y in got] == [
            (x.hex(), y.hex()) for x, y in want
        ]
        stream = itertools.islice(E._reseed_stream(np.random.default_rng(seed)), 10000)
        assert [(x.hex(), y.hex()) for x, y in stream] == [(x.hex(), y.hex()) for x, y in want]

    def test_memory_at_t1_does_not_grow_with_n(self):
        # The lanes hold one batch of segments at a time: below the 2.2 MB
        # of the 512-cell oracle1d matrix.
        x0 = E.seeded_start(1.0, 4)
        tracemalloc.start()
        try:
            E.orbit_stats(1.0, x0, 10**6, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


# x on either side of the branch test's EPS_GEOM tie-break at x = 1:
# x = 1 + 1e-10 goes to the first branch, x = 1 + 2e-9 to the second.
TIE_BREAK_X = (1.0 - 2e-9, 1.0 - 1e-10, 1.0 + 1e-10, 1.0 + 2e-9)


def _left_preimage(t, x, y):
    """A start that the first branch sends to (x, y) up to rounding."""
    return ((x + y) / (2.0 * t), (x - y) / (2.0 * t))


class TestBirkhoffOracle:
    """birkhoff_average against maps.apply on every step, under float.hex."""

    @pytest.mark.parametrize(
        "t,seed,n", ORACLE_CASES, ids=[f"t{t!r}-seed{s}-n{n}" for t, s, n in ORACLE_CASES]
    )
    def test_matches_apply_every_step(self, t, seed, n):
        x0 = E.seeded_start(t, seed)
        wants = orbit_oracle.birkhoff_averages(t, x0, n, seed)
        assert list(wants) == list(E.TEST_FUNCTIONS)
        for name, want in wants.items():
            assert E.birkhoff_average(t, name, x0, n, seed).hex() == want.hex(), name

    def test_one_pass_oracle_matches_per_observable_oracle(self):
        x0 = E.seeded_start(1.0, 2)
        wants = orbit_oracle.birkhoff_averages(1.0, x0, 3000, 2)
        for name, want in wants.items():
            assert orbit_oracle.birkhoff_average(1.0, name, x0, 3000, 2).hex() == want.hex()

    @pytest.mark.parametrize("t", [0.9, 1.0])
    def test_boundary_and_tie_break_starts(self, t):
        # The first step is apply itself at the tie-break starts; the left
        # preimages put the second point there, where the inline branch
        # test decides.
        preimages = [_left_preimage(t, x, 0.3) for x in TIE_BREAK_X]
        m = make_tent2d(t)
        for p, x in zip(preimages, TIE_BREAK_X):
            assert abs(apply(m, p).x - x) <= 1e-15
        starts = [*BOUNDARY_STARTS, *((x, 0.3) for x in TIE_BREAK_X), *preimages]
        for x0 in starts:
            for name in E.TEST_FUNCTIONS:
                for n in (1, 2, 50):
                    want = orbit_oracle.birkhoff_average(t, name, x0, n, 1)
                    got = E.birkhoff_average(t, name, x0, n, 1)
                    assert got.hex() == want.hex(), (x0, name, n)


class TestUlamOrbitAgreement:
    """The two independent measurements of mu_t agree in the weak sense:
    the moments of the Ulam density against the means of seeded orbits.

    The orbit side averages 12 orbit_stats runs of 2e5 steps (seeds 1-12
    from seeded_start); its standard error is the standard deviation of
    the 12 values over sqrt(12).  The runs are independent replicas, so
    that error already carries the orbits' autocorrelation, which an iid
    error over all 2.4e6 points would miss.  The Ulam side is the fixed
    density at resolution 256, and its resolution error is the change in
    the moment from resolution 128 to 256.  That difference stands in for
    the a-posteriori error bar of ROADMAP item 3 until it lands; item 17
    names the 256-512 difference, at about three times the cost.
    Measured: the largest gap is 0.49 of its allowance (y2 at
    TENT_T_MIN), the others at most 0.30.
    """

    @pytest.mark.parametrize("t", [TAU, 0.9, 0.95])
    def test_moments_agree_within_four_standard_errors(self, t):
        m = tent_power(t, 1)
        moments = {}
        for resolution in (128, 256):
            grid = D.UlamGrid.build(m.region, resolution)
            moments[resolution] = grid.moments(D.ulam_fixed(D.build_ulam(m, grid)).values)
        runs = [E.orbit_stats(t, E.seeded_start(t, seed), 200_000, seed) for seed in range(1, 13)]
        for name, p in E.TEST_FUNCTIONS.items():
            if name == "1":
                continue
            values = np.array([run.birkhoff[name] for run in runs])
            se = values.std(ddof=1) / math.sqrt(len(values))
            resolution_error = abs(moments[256][p] - moments[128][p])
            gap = abs(moments[256][p] - values.mean())
            assert gap <= 4.0 * se + resolution_error, (name, gap, se, resolution_error)


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

    @pytest.mark.parametrize("cells", [2, 4, 16, 64, 512, 1000])
    @pytest.mark.parametrize(
        "a", [1.0000001, 1.2, 1.5, 1.7, 1.9626081113631917, 1.999999, 2.0]
    )
    def test_banded_matches_the_dense_formula(self, a, cells):
        # The overlaps only on the target cells the images reach, written
        # into the dense matrix: every entry, the density and the
        # iteration count as over all n^2 pairs.
        want, density, iterations, residual = ulam_oracle.tent1d_dense(a, cells, max_iter=2000)
        got = E.tent1d_ulam(a, cells, max_iter=2000)
        assert got.matrix.tobytes() == want.tobytes()
        assert got.fixed_density.tobytes() == density.tobytes()
        assert (got.iterations, got.residual.hex()) == (iterations, residual.hex())

    def test_banded_matrix_peak(self):
        # Only the matrix is an n^2 array (2.1 MB at 512 cells): it is
        # column-major, so the stationary solve's adjoint is a view of it.
        # With a transposed copy the peak was 4.3 MB, and the dense
        # formula held about 6.6 MB.
        tracemalloc.start()
        try:
            E.tent1d_ulam(1.9626081113631917, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

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
        m = tent_power(1.0, 3)
        cert = certify(m)
        rows = E.ly_check(m, D.uniform_density(TRIANGLE_T), 1, cert)
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
