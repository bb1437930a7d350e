"""Tent family construction, powers, and condition certification."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from tentstab import maps
from tentstab.errors import CellExplosion, OutsideRegion, ParameterOutOfRange
from tentstab.experiments import seeded_start
from tentstab.geom2d import (
    EPS_AREA,
    AffineMap2,
    ConvexPolygon,
    Matrix2,
    area,
    intersect,
    matrix_norms,
    snap_key,
)
from tentstab.maps import (
    TENT_T_MIN,
    Branch,
    NormConvention,
    PiecewiseMap,
    apply,
    certify,
    estimate_long_branches,
    make_tent2d,
    power,
    tent_power,
    verify_distortion,
    verify_expansion,
)


TAU = TENT_T_MIN
BETA_OCTANT = math.sin(math.pi / 8.0)


class TestMakeTent2d:
    def test_t1_jacobians(self):
        m = make_tent2d(1.0)
        assert len(m.branches) == 2
        for b in m.branches:
            assert b.jacobian_abs == pytest.approx(2.0, abs=1e-15)
            assert b.jacobian_abs == abs(b.map.linear.det())

    def test_tau_jacobian(self):
        m = make_tent2d(TAU)
        assert m.branches[0].jacobian_abs == pytest.approx(2.0 * TAU * TAU, abs=1e-15)

    def test_right_corner_maps_to_origin(self):
        m = make_tent2d(0.7)
        img = apply(m, (2.0, 0.0))
        assert img.x == pytest.approx(0.0, abs=1e-12)
        assert img.y == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5, math.inf])
    def test_bad_parameter(self, t):
        with pytest.raises(ParameterOutOfRange):
            make_tent2d(t)

    def test_branch_images_inside_region(self):
        for t in (TAU, 0.9, 1.0):
            m = make_tent2d(t)
            for b in m.branches:
                img = maps.affine_image(b.map, b.domain)
                assert area(intersect(img, m.region)) == pytest.approx(
                    area(img), abs=1e-10
                )


class TestApply:
    def test_critical_line_tie_breaks_to_first_branch(self):
        m = make_tent2d(1.0)
        img = apply(m, (1.0, 0.0))
        assert (img.x, img.y) == pytest.approx((1.0, 1.0), abs=1e-15)

    def test_origin_fixed(self):
        for t in (TAU, 0.9, 1.0):
            img = apply(make_tent2d(t), (0.0, 0.0))
            assert (img.x, img.y) == (0.0, 0.0)

    def test_second_branch(self):
        img = apply(make_tent2d(1.0), (1.5, 0.5))
        assert (img.x, img.y) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_outside_region_raises(self):
        with pytest.raises(OutsideRegion):
            apply(make_tent2d(1.0), (1.5, 1.5))


class TestPower:
    @pytest.mark.parametrize("t", [TAU, 0.9, 0.95, 1.0])
    def test_branch_counts(self, t):
        m = make_tent2d(t)
        for n in (1, 2, 3):
            assert len(power(m, n).branches) == 2**n

    @pytest.mark.parametrize("t", [TAU, 0.9, 0.95, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partition_closure(self, t, n):
        mp = tent_power(t, n)
        total = sum(b.domain.area for b in mp.branches)
        assert abs(total - 1.0) <= 1e-8
        doms = [b.domain for b in mp.branches]
        for i in range(len(doms)):
            bi = doms[i].bbox()
            for j in range(i + 1, len(doms)):
                bj = doms[j].bbox()
                if bi[0] > bj[2] or bi[2] < bj[0] or bi[1] > bj[3] or bi[3] < bj[1]:
                    continue
                assert area(intersect(doms[i], doms[j])) <= EPS_AREA

    def test_conjugated_application(self, rng):
        m1 = make_tent2d(0.9)
        m3 = tent_power(0.9, 3)
        checked = 0
        for _ in range(10000):
            p = seeded_start(0.9, int(rng.integers(2**31)))
            if not any(br.domain.contains(p, -1e-6) for br in m3.branches):
                continue
            checked += 1
            q_pow = apply(m3, p)
            q_it = p
            for _ in range(3):
                q_it = apply(m1, q_it)
            assert math.hypot(q_pow.x - q_it.x, q_pow.y - q_it.y) <= 1e-7
        assert checked > 9000

    @pytest.mark.parametrize("t", [TAU, 0.95, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conformality(self, t, n):
        expected = (math.sqrt(2.0) * t) ** n
        for b in tent_power(t, n).branches:
            norms = matrix_norms(b.map.linear)
            smax = norms["spectral"]
            smin = abs(norms["det"]) / smax
            assert smax == pytest.approx(expected, abs=1e-12)
            assert smin == pytest.approx(expected, abs=1e-12)

    def test_power_one_is_identity(self):
        m = make_tent2d(0.9)
        assert power(m, 1) is m

    def test_label_tracks_power(self):
        assert tent_power(0.9, 3).label == "tent2d t=0.9 power=3"

    @pytest.mark.parametrize("n", [20, 40, 10**9])
    def test_branch_budget_checked_before_composing(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(CellExplosion, match=f"power {n} of a map with 2 branches"):
                tent_power(0.9, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestExpansion:
    def test_cube_at_t1(self):
        rep = verify_expansion(tent_power(1.0, 3))
        assert rep.sigma_spectral == pytest.approx(2.0**-1.5, abs=1e-14)
        # Max entry of the composed inverse is 1/(4 t^3): two-fold products
        # of the branch inverses are 2x(signed permutation), so the triple
        # products have every entry of magnitude 2 / (2t)^3.
        assert rep.sigma_max_entry == pytest.approx(0.25, abs=1e-14)

    def test_cube_at_tau(self):
        cert = certify(tent_power(TAU, 3))
        assert cert.sigma_paper == pytest.approx(1.0 / (8.0 * TAU**3), abs=1e-14)
        assert cert.sigma_spectral == pytest.approx(
            1.0 / (2.0 * math.sqrt(2.0) * TAU**3), abs=1e-12
        )

    def test_distortion_is_zero(self):
        for t in (TAU, 1.0):
            assert verify_distortion(tent_power(t, 3)) == 0.0
            assert verify_distortion(make_tent2d(t)) == 0.0


class TestLongBranches:
    def test_unit_square_identity_branch(self):
        square = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        ident = AffineMap2(Matrix2(1.0, 0.0, 0.0, 1.0), (0.0, 0.0))
        m = PiecewiseMap(square, (Branch(square, ident, 1.0),), "square id")
        rep = estimate_long_branches(m)
        assert rep.beta == pytest.approx(math.sin(math.pi / 4.0), abs=1e-12)
        assert rep.rho == pytest.approx(0.25, abs=1e-9)

    def test_tent_first_power(self):
        rep = estimate_long_branches(make_tent2d(1.0))
        assert rep.beta == pytest.approx(BETA_OCTANT, abs=1e-12)

    @pytest.mark.parametrize("t", [TAU, 0.9, 1.0])
    def test_cube_angles(self, t):
        rep = estimate_long_branches(tent_power(t, 3))
        for rec in rep.per_branch:
            assert rec.theta_min_domain >= math.pi / 4.0 - 1e-9
            assert rec.theta_min_image >= math.pi / 4.0 - 1e-9
        assert rep.beta == pytest.approx(BETA_OCTANT, abs=1e-6)


class TestCertify:
    def test_paper_formula_at_tau(self):
        cert = certify(tent_power(TAU, 3), NormConvention.PAPER_FORMULA)
        sigma = 1.0 / (8.0 * TAU**3)
        lam = sigma * (1.0 + 1.0 / BETA_OCTANT)
        assert cert.lam == pytest.approx(lam, rel=1e-9)
        assert cert.lam < 1.0
        assert cert.satisfied
        assert cert.K == pytest.approx(1.0 / (cert.beta * cert.rho), rel=1e-12)
        assert cert.K1 == pytest.approx(cert.K / (1.0 - cert.lam), rel=1e-12)

    def test_paper_formula_at_one(self):
        cert = certify(tent_power(1.0, 3))
        assert cert.lam == pytest.approx(0.125 * (1.0 + 1.0 / BETA_OCTANT), rel=1e-9)
        assert cert.satisfied

    def test_spectral_at_tau_fails(self):
        cert = certify(tent_power(TAU, 3), NormConvention.SPECTRAL)
        assert cert.lam >= 1.0
        assert not cert.satisfied
        assert math.isinf(cert.K1)

    def test_lambda_monotone_in_t(self):
        lams = [
            certify(tent_power(t, 3)).lam
            for t in np.linspace(TAU, 1.0, 7)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))

    def test_higher_power_certifies_spectrally(self):
        # Spectral contraction per step is 1/(sqrt(2) t) < 1, so a high
        # enough power beats the 1 + 1/beta factor even at the left edge.
        cert = certify(tent_power(TAU, 6), NormConvention.SPECTRAL)
        assert cert.lam < 1.0
        assert cert.satisfied

    def test_json_keys_and_values(self):
        cert = certify(tent_power(TAU, 3))
        data = json.loads(cert.to_json())
        assert list(data.keys()) == [
            "t",
            "power",
            "sigma_spectral",
            "sigma_max_entry",
            "sigma_paper",
            "D",
            "beta",
            "rho",
            "lambda",
            "K",
            "K1",
            "norm_convention",
            "satisfied",
        ]
        assert data["t"] == pytest.approx(TAU, abs=1e-15)
        assert data["power"] == 3
        assert data["lambda"] == pytest.approx(cert.lam, rel=1e-15)
        assert data["norm_convention"] == "PaperFormula"
        assert data["satisfied"] is True

    def test_json_infinity_for_unsatisfied(self):
        cert = certify(tent_power(TAU, 3), NormConvention.SPECTRAL)
        data = json.loads(cert.to_json())
        assert data["satisfied"] is False
        assert math.isinf(data["K1"])


def test_region_keys_shared_by_powers():
    m = make_tent2d(0.93)
    m2 = power(m, 2)
    assert {snap_key(v) for v in m.region.vertices} == {
        snap_key(v) for v in m2.region.vertices
    }
